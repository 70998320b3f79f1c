//! A minimal flag parser for the experiment binaries, `mpilctl`, `mpild`
//! and `mpil-load` (kept dependency-free; the offline crate set has no
//! argument-parsing crate).

use fxhash::FxHashMap;

/// Parsed command-line arguments.
///
/// Recognized forms: `--flag` (boolean) and `--key value`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<String>,
    values: FxHashMap<String, String>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage hint on malformed input (an option without the
    /// leading `--`).
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics on a positional argument (everything must be `--`-prefixed).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            let Some(name) = a.strip_prefix("--") else {
                panic!("unexpected positional argument {a:?}; use --key value");
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    out.values.insert(name.to_string(), v);
                }
                _ => out.flags.push(name.to_string()),
            }
        }
        out
    }

    /// Is the boolean flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Parses `--name value` as a type, with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but unparseable.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("--{name} {v:?}: {e:?}")),
        }
    }

    /// Standard experiment knobs: (`--full`, `--csv`, `--seed`).
    pub fn standard(&self) -> (bool, bool, u64) {
        (
            self.flag("full"),
            self.flag("csv"),
            self.value_or("seed", 42),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_values() {
        let a = parse("--full --seed 7 --csv --nodes 1000");
        assert!(a.flag("full"));
        assert!(a.flag("csv"));
        assert!(!a.flag("quick"));
        assert_eq!(a.value("seed"), Some("7"));
        assert_eq!(a.value_or::<u64>("seed", 0), 7);
        assert_eq!(a.value_or::<usize>("nodes", 0), 1000);
        assert_eq!(a.value_or::<usize>("missing", 9), 9);
    }

    #[test]
    fn standard_triple() {
        let (full, csv, seed) = parse("--seed 5").standard();
        assert!(!full && !csv);
        assert_eq!(seed, 5);
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn rejects_positionals() {
        let _ = parse("oops");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_numbers() {
        let a = parse("--seed banana");
        let _ = a.value_or::<u64>("seed", 0);
    }
}
