//! Tiny hand-rolled flag parser shared by the subcommands.

use fgh_core::{DecomposeConfig, Model, Parallelism};

/// Parsed command line: positional arguments plus `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Opts {
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "parallel",
    "strict",
    "trace",
    "fault-injection",
    "self-test",
    "inject",
];

/// The flags [`Opts::decompose_config`] reads; every subcommand that
/// decomposes accepts them.
pub const DECOMPOSE_FLAGS: &[&str] = &[
    "model",
    "epsilon",
    "seed",
    "runs",
    "max-wall-ms",
    "max-bytes",
    "threads",
    "trace",
];

impl Opts {
    /// Parses `args` against `known`, the names (without `--`) of the
    /// flags the subcommand reads. Any other `--flag` is an error that
    /// names it: a misspelt or retired flag must not run with a default.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                if BOOL_FLAGS.contains(&name) {
                    o.flags.push((name.to_string(), None));
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    o.flags.push((name.to_string(), Some(v.clone())));
                }
            } else {
                o.positional.push(a.clone());
            }
        }
        Ok(o)
    }

    /// Errors on the first flag given outside `read`, the flags `mode`
    /// reads: a command whose modes read different flags must not let
    /// one mode ignore another's.
    pub fn only(&self, mode: &str, read: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(n, _)| !read.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("flag --{n} is not read by {mode}")),
            None => Ok(()),
        }
    }

    /// The single required positional argument.
    pub fn one_positional(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err(format!("missing argument: {what}")),
            _ => Err(format!("expected exactly one argument ({what})")),
        }
    }

    /// One required positional plus an optional second (the SpGEMM
    /// command's `A.mtx [B.mtx]` shape).
    pub fn one_or_two_positional(&self, what: &str) -> Result<(&str, Option<&str>), String> {
        match self.positional.as_slice() {
            [a] => Ok((a, None)),
            [a, b] => Ok((a, Some(b))),
            [] => Err(format!("missing argument: {what}")),
            _ => Err(format!("expected at most two arguments ({what})")),
        }
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Parsed flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
            None => Ok(default),
        }
    }

    /// Required parsed flag.
    pub fn parse_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    }

    /// The `--max-wall-ms` and `--max-bytes` flags as a partitioner
    /// budget (default unlimited). Both degrade rather than abort: the
    /// engine keeps the best partition found when a cap trips.
    pub fn budget(&self) -> Result<fgh_core::Budget, String> {
        let mut b = fgh_core::Budget::UNLIMITED;
        if let Some(v) = self.get("max-wall-ms") {
            let ms: u64 = v.parse().map_err(|e| format!("--max-wall-ms: {e}"))?;
            b.max_wall = Some(std::time::Duration::from_millis(ms));
        }
        if let Some(v) = self.get("max-bytes") {
            b.max_bytes = Some(v.parse().map_err(|e| format!("--max-bytes: {e}"))?);
        }
        Ok(b)
    }

    /// The `--threads N` flag as a partitioner thread policy. Absent means
    /// [`Parallelism::Auto`] (all available cores); `--threads 1` forces a
    /// serial run. Results are bit-identical across thread counts.
    pub fn parallelism(&self) -> Result<Parallelism, String> {
        match self.get("threads") {
            Some(v) => {
                let n: usize = v.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads: thread count must be >= 1".into());
                }
                Ok(Parallelism::Threads(n))
            }
            None => Ok(Parallelism::Auto),
        }
    }

    /// The `--model` flag, or `default` when it is absent. Accepts every
    /// name and alias [`Model`]'s `FromStr` knows.
    pub fn model_or(&self, default: &str) -> Result<Model, String> {
        self.get("model")
            .unwrap_or(default)
            .parse()
            .map_err(|e| format!("--model: {e}"))
    }

    /// Builds the decomposition request shared by the subcommands from
    /// the [`DECOMPOSE_FLAGS`] and an already-resolved processor count.
    pub fn decompose_config(&self, k: u32) -> Result<DecomposeConfig, String> {
        self.decompose_config_for("fine-grain-2d", k)
    }

    /// [`Opts::decompose_config`] with a caller-chosen default model —
    /// the SpGEMM subcommand defaults to the task-hypergraph model
    /// instead of the SpMV fine-grain model.
    pub fn decompose_config_for(
        &self,
        default_model: &str,
        k: u32,
    ) -> Result<DecomposeConfig, String> {
        Ok(DecomposeConfig::new(self.model_or(default_model)?, k)
            .with_epsilon(self.parse_or("epsilon", 0.03)?)
            .with_seed(self.parse_or("seed", 1)?)
            .with_runs(self.parse_or("runs", 1)?)
            .with_budget(self.budget()?)
            .with_parallelism(self.parallelism()?)
            .with_trace(self.has("trace")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A flag list for parser tests: the decomposition flags plus the
    /// ones the tests below use.
    fn known() -> Vec<&'static str> {
        [DECOMPOSE_FLAGS, &["k", "parallel"]].concat()
    }

    #[test]
    fn parse_positional_and_flags() {
        let o = Opts::parse(&sv("a.mtx --k 16 --parallel --model graph-1d"), &known()).unwrap();
        assert_eq!(o.one_positional("matrix").unwrap(), "a.mtx");
        assert_eq!(o.parse_required::<u32>("k").unwrap(), 16);
        assert!(o.has("parallel"));
        assert_eq!(o.model_or("fine-grain-2d").unwrap(), Model::Graph1D);
    }

    #[test]
    fn threads_flag_maps_to_parallelism() {
        let o = Opts::parse(&sv("a.mtx --threads 4"), &known()).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Threads(4));
        let o = Opts::parse(&sv("a.mtx"), &known()).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Auto);
        let o = Opts::parse(&sv("a.mtx --threads 0"), &known()).unwrap();
        assert!(o.parallelism().is_err());
        let o = Opts::parse(&sv("a.mtx --threads lots"), &known()).unwrap();
        assert!(o.parallelism().is_err());
    }

    #[test]
    fn defaults() {
        let o = Opts::parse(&sv("m.mtx --k 4"), &known()).unwrap();
        assert_eq!(o.decompose_config(4).unwrap().model, Model::FineGrain2D);
        assert_eq!(o.parse_or("seed", 1u64).unwrap(), 1);
        assert_eq!(o.parse_or("runs", 3usize).unwrap(), 3);
    }

    #[test]
    fn errors() {
        assert!(Opts::parse(&sv("--k"), &known()).is_err());
        let o = Opts::parse(&sv("m.mtx"), &known()).unwrap();
        assert!(o.parse_required::<u32>("k").is_err());
        let o = Opts::parse(&sv("m.mtx --model bogus"), &known()).unwrap();
        assert!(o.model_or("fine-grain-2d").is_err());
        let o = Opts::parse(&sv("m.mtx --model checkerboard-hg"), &known()).unwrap();
        assert!(o.model_or("fine-grain-2d").is_err());
        let o = Opts::parse(&sv("a b"), &known()).unwrap();
        assert!(o.one_positional("matrix").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A retired flag and a misspelt one: both would otherwise run the
        // defaults and exit 0.
        for extra in ["--initial ghg", "--seeed 5"] {
            let line = format!("m.mtx --k 4 {extra}");
            let e = crate::commands::partition::run(&sv(&line)).unwrap_err();
            assert_eq!(e.code, 2, "{line}: {}", e.msg);
            let flag = extra.split_whitespace().next().unwrap();
            assert!(e.msg.contains(flag), "{line}: {}", e.msg);
        }
    }

    #[test]
    fn spy_without_k_reads_only_width() {
        // Without --k nothing is decomposed, so a decomposition flag
        // would otherwise be silently ignored.
        let dir = std::env::temp_dir().join("fgh_cli_opts_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = dir.join("spy.mtx");
        std::fs::write(
            &m,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        .unwrap();
        let m = m.display();
        let e =
            crate::commands::spy::run(&sv(&format!("{m} --model graph-1d --seed 9"))).unwrap_err();
        assert_eq!(e.code, 2, "{}", e.msg);
        assert!(e.msg.contains("--model"), "{}", e.msg);
        crate::commands::spy::run(&sv(&format!("{m} --width 8"))).unwrap();
    }

    #[test]
    fn last_flag_wins() {
        let o = Opts::parse(&sv("m --k 2 --k 8"), &known()).unwrap();
        assert_eq!(o.parse_required::<u32>("k").unwrap(), 8);
    }
}
