//! # surf-bench
//!
//! Experiment harness regenerating every table and figure of the SuRF paper's evaluation
//! (Section V). Each `src/bin/*` binary reproduces one figure/table: it prints the rows or
//! series the paper reports and writes a JSON artifact under `target/experiments/`. The
//! Criterion benches under `benches/` cover the micro-benchmarks (statistic evaluation,
//! objective evaluation, GSO scaling, surrogate training, and the Table I method comparison
//! at reduced scale).
//!
//! Every binary accepts `--quick` for a reduced sweep and `--full` for the paper-scale sweep;
//! the default sits in between so the whole suite finishes in minutes on a laptop. Any other
//! argument is refused with a usage message and exit status 2, so a typo never silently
//! runs the default sweep.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod report;

/// Which sweep size an experiment binary should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sweep used by CI smoke runs (`--quick`).
    Quick,
    /// The default sweep: same structure as the paper, reduced sizes.
    Default,
    /// Paper-scale sweep (`--full`); can take a long time.
    Full,
}

/// The usage line every experiment binary prints when its arguments do not parse.
const USAGE: &str = "usage: <bin> [--quick | --full]";

impl Scale {
    /// Parses the scale from the process arguments; prints the usage message and exits
    /// with status 2 on anything [`Scale::parse`] rejects.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses the scale from arguments (program name excluded): none selects
    /// [`Scale::Default`], `--quick` and `--full` select their sweep. Unknown arguments and
    /// conflicting scales are errors.
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut scale = None;
        for arg in args {
            let chosen = match arg.as_ref() {
                "--quick" => Scale::Quick,
                "--full" => Scale::Full,
                other => return Err(format!("unknown argument `{other}`")),
            };
            if scale.is_some_and(|s| s != chosen) {
                return Err("`--quick` and `--full` are mutually exclusive".into());
            }
            scale = Some(chosen);
        }
        Ok(scale.unwrap_or(Scale::Default))
    }

    /// Picks one of three values according to the scale.
    pub fn pick<T>(&self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_by_variant() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_from_args_defaults_to_default() {
        assert_eq!(Scale::parse(Vec::<String>::new()), Ok(Scale::Default));
        assert_eq!(Scale::parse(["--quick"]), Ok(Scale::Quick));
        assert_eq!(Scale::parse(["--full", "--full"]), Ok(Scale::Full));
    }

    #[test]
    fn scale_parse_rejects_unknown_and_conflicting_arguments() {
        for args in [
            vec!["--quik"],
            vec!["--quick", "extra"],
            vec!["-q"],
            vec![""],
        ] {
            let err = Scale::parse(&args).unwrap_err();
            assert!(err.contains("unknown argument"), "{args:?}: {err}");
        }
        assert!(Scale::parse(["--quick", "--full"]).is_err());
    }
}
