//! The one command-line parser behind `tage_exp` and `tage_trace`.
//!
//! Each subcommand names its value-taking `--flag`s and its bare
//! switches; everything else that starts with `--` is a usage error, and
//! the rest are positionals. Values are kept in parse order, so a
//! repeatable flag (`--trace`, `--spec`) yields every value and a
//! single-valued one reads its last occurrence.

use std::fmt;

/// Why a command line failed to parse.
#[derive(Debug, PartialEq, Eq)]
pub enum FlagError {
    /// An argument starting with `--` that the subcommand does not take.
    Unknown(String),
    /// A value-taking flag with nothing after it.
    MissingValue(String),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown(flag) => write!(f, "unknown flag '{flag}'"),
            FlagError::MissingValue(flag) => write!(f, "{flag} expects a value"),
        }
    }
}

/// A parsed command line: positionals plus the recognized flags.
#[derive(Debug, Default)]
pub struct Flags {
    /// Arguments that are neither flags nor flag values, in order.
    pub positional: Vec<String>,
    /// `(flag, value)` pairs in parse order; switches carry an empty value.
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Splits `args` into positionals, the `flags` that take a value and
    /// the boolean `switches`.
    ///
    /// # Errors
    ///
    /// [`FlagError::Unknown`] for an unrecognized `--` argument and
    /// [`FlagError::MissingValue`] for a value flag that ends the line.
    pub fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Result<Self, FlagError> {
        let mut parsed = Self::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if flags.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| FlagError::MissingValue(a.clone()))?;
                parsed.pairs.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
                parsed.pairs.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                return Err(FlagError::Unknown(a.clone()));
            } else {
                parsed.positional.push(a.clone());
            }
        }
        Ok(parsed)
    }

    /// The last value given for `name`, if any.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
    }

    /// Every value given for the repeatable flag `name`, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(f, _)| f == name).map(|(_, v)| v.as_str()).collect()
    }

    /// Whether the switch (or flag) `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Flags::parse(&args("a --bogus b"), &["--top"], &["--json"]).unwrap_err();
        assert_eq!(err, FlagError::Unknown("--bogus".into()));
        assert_eq!(err.to_string(), "unknown flag '--bogus'");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Flags::parse(&args("a --top"), &["--top"], &[]).unwrap_err();
        assert_eq!(err, FlagError::MissingValue("--top".into()));
        assert_eq!(err.to_string(), "--top expects a value");
    }

    #[test]
    fn repeated_flags_keep_every_value_and_the_last_wins() {
        let f = Flags::parse(
            &args("--trace a x --trace b --top 3 -h --top 5 y"),
            &["--trace", "--top"],
            &["-h", "--json"],
        )
        .unwrap();
        assert_eq!(f.positional, ["x", "y"]);
        assert_eq!(f.values("--trace"), ["a", "b"]);
        assert_eq!(f.flag("--top"), Some("5"));
        assert_eq!(f.flag("--scale"), None);
        assert!(f.switch("-h"));
        assert!(!f.switch("--json"));
        // A value flag takes the next argument verbatim, even a flag.
        let f = Flags::parse(&args("--top --json"), &["--top"], &["--json"]).unwrap();
        assert_eq!(f.flag("--top"), Some("--json"));
        assert!(!f.switch("--json"));
    }
}
