//! Tiny hand-rolled flag parser shared by the subcommands.

use fgh_core::{DecomposeConfig, InitialScheme, Model, Parallelism};

/// Parsed command line: positional arguments plus `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Opts {
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "--parallel",
    "--quiet",
    "--strict",
    "--trace",
    "--fault-injection",
    "--self-test",
    "--inject",
];

impl Opts {
    /// Parses `args`; flags must start with `--`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Opts::default();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&a.as_str()) {
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

    /// The `--model` flag (default fine-grain 2D). Accepts every name
    /// and alias [`Model`]'s `FromStr` knows.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn model(&self) -> Result<Model, String> {
        self.model_or("fine-grain-2d")
    }

    /// [`Opts::model`] with a caller-chosen default name.
    pub fn model_or(&self, default: &str) -> Result<Model, String> {
        self.get("model")
            .unwrap_or(default)
            .parse()
            .map_err(|e| format!("--model: {e}"))
    }

    /// The `--initial` flag (default GHG): ghg or binpacking.
    pub fn initial(&self) -> Result<InitialScheme, String> {
        self.get("initial")
            .unwrap_or("ghg")
            .parse()
            .map_err(|e| format!("--initial: {e}"))
    }

    /// Builds the decomposition request shared by the subcommands from
    /// the common flags (`--model --epsilon --seed --runs --initial
    /// --max-wall-ms --max-bytes --threads --trace`) and an
    /// already-resolved processor count.
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
            .with_trace(self.has("trace"))
            .with_initial(self.initial()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_positional_and_flags() {
        let o = Opts::parse(&sv("a.mtx --k 16 --parallel --model graph-1d")).unwrap();
        assert_eq!(o.one_positional("matrix").unwrap(), "a.mtx");
        assert_eq!(o.parse_required::<u32>("k").unwrap(), 16);
        assert!(o.has("parallel"));
        assert_eq!(o.model().unwrap(), Model::Graph1D);
    }

    #[test]
    fn threads_flag_maps_to_parallelism() {
        let o = Opts::parse(&sv("a.mtx --threads 4")).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Threads(4));
        let o = Opts::parse(&sv("a.mtx")).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Auto);
        let o = Opts::parse(&sv("a.mtx --threads 0")).unwrap();
        assert!(o.parallelism().is_err());
        let o = Opts::parse(&sv("a.mtx --threads lots")).unwrap();
        assert!(o.parallelism().is_err());
    }

    #[test]
    fn defaults() {
        let o = Opts::parse(&sv("m.mtx --k 4")).unwrap();
        assert_eq!(o.model().unwrap(), Model::FineGrain2D);
        assert_eq!(o.parse_or("seed", 1u64).unwrap(), 1);
        assert_eq!(o.parse_or("runs", 3usize).unwrap(), 3);
    }

    #[test]
    fn errors() {
        assert!(Opts::parse(&sv("--k")).is_err());
        let o = Opts::parse(&sv("m.mtx")).unwrap();
        assert!(o.parse_required::<u32>("k").is_err());
        let o = Opts::parse(&sv("m.mtx --model bogus")).unwrap();
        assert!(o.model().is_err());
        let o = Opts::parse(&sv("m.mtx --model checkerboard-hg")).unwrap();
        assert!(o.model().is_err());
        let o = Opts::parse(&sv("a b")).unwrap();
        assert!(o.one_positional("matrix").is_err());
    }

    #[test]
    fn initial_flag_maps_to_scheme() {
        let o = Opts::parse(&sv("m.mtx --initial binpacking")).unwrap();
        assert_eq!(o.initial().unwrap(), InitialScheme::BinPacking);
        let o = Opts::parse(&sv("m.mtx")).unwrap();
        assert_eq!(o.initial().unwrap(), InitialScheme::Ghg);
        for gone in ["geometric", "AUTO", "random", "bogus"] {
            let o = Opts::parse(&sv(&format!("m.mtx --initial {gone}"))).unwrap();
            assert!(o.initial().is_err(), "--initial {gone} must be rejected");
        }
    }

    #[test]
    fn last_flag_wins() {
        let o = Opts::parse(&sv("m --k 2 --k 8")).unwrap();
        assert_eq!(o.parse_required::<u32>("k").unwrap(), 8);
    }
}
