//! A minimal flag parser for the experiment binaries, `mpilctl`, `mpild`
//! and `mpil-load` (kept dependency-free; the offline crate set has no
//! argument-parsing crate).

use std::cell::RefCell;

/// Parsed command-line arguments.
///
/// Recognized forms: `--flag` (boolean) and `--key value`. Every name a
/// getter is asked for is remembered, so [`Args::finish`] can refuse
/// what the command line holds and no code path read.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The command line in order: `--name`, or `--name value`.
    given: Vec<(String, Option<String>)>,
    /// What the getters were asked for: a name, and whether its value.
    asked: RefCell<Vec<(String, bool)>>,
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
            let value = iter.next_if(|v| !v.starts_with("--"));
            out.given.push((name.to_string(), value));
        }
        out
    }

    /// Is the boolean flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.asked.borrow_mut().push((name.to_string(), false));
        self.given.iter().any(|(n, v)| n == name && v.is_none())
    }

    /// The value of `--name value`, if present (the last, if repeated).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.asked.borrow_mut().push((name.to_string(), true));
        let mut named = self.given.iter().rev().filter(|(n, _)| n == name);
        named.find_map(|(_, v)| v.as_deref())
    }

    /// Parses `--name value` as a type, if present.
    ///
    /// # Errors
    ///
    /// Names the flag and the value if the value does not parse.
    pub fn try_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("--{name} {v:?}: {e}")))
            .transpose()
    }

    /// Like [`Args::try_value`], and refuses a value outside `range` (a
    /// NaN lies outside every range).
    ///
    /// # Errors
    ///
    /// Names the flag and the value if the value does not parse or lies
    /// outside `range`.
    pub fn try_value_in<T, R>(&self, name: &str, range: R) -> Result<Option<T>, String>
    where
        T: std::str::FromStr + PartialOrd,
        T::Err: std::fmt::Display,
        R: std::ops::RangeBounds<T> + std::fmt::Debug,
    {
        let value: Option<T> = self.try_value(name)?;
        if value.as_ref().is_some_and(|v| !range.contains(v)) {
            let given = self.value(name).unwrap_or_default();
            return Err(format!("--{name} {given:?}: outside {range:?}"));
        }
        Ok(value)
    }

    /// Refuses what is on the command line and was not read the way it
    /// was written: call it once every flag of the command has been
    /// asked for, before the command does anything.
    ///
    /// # Errors
    ///
    /// Names the first of: a value-taking flag written without a value,
    /// a bare flag written with one, a flag nothing asked for.
    pub fn finish(&self) -> Result<(), String> {
        let asked = self.asked.borrow();
        let was_asked = |name, valued| asked.iter().any(|(n, v)| n == name && *v == valued);
        for (name, value) in &self.given {
            if was_asked(name, value.is_some()) {
                continue;
            }
            return Err(match value {
                _ if !was_asked(name, value.is_none()) => format!("unknown flag --{name}"),
                Some(value) => format!("--{name} takes no value (got {value:?})"),
                None => format!("--{name} needs a value"),
            });
        }
        Ok(())
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
        assert_eq!(a.try_value::<u64>("seed"), Ok(Some(7)));
        assert_eq!(a.try_value::<usize>("nodes"), Ok(Some(1000)));
        assert_eq!(a.try_value::<usize>("missing"), Ok(None));
        assert_eq!(a.finish(), Ok(()));
    }

    /// The knobs every figure binary reads: `--full`, `--csv`, `--seed`.
    #[test]
    fn standard_triple() {
        let read = |a: &Args| (a.flag("full"), a.flag("csv"), a.try_value::<u64>("seed"));
        let a = parse("--seed 5");
        assert_eq!(read(&a), (false, false, Ok(Some(5))));
        assert_eq!(a.finish(), Ok(()));
        let a = parse("--full --seed");
        assert_eq!(read(&a), (true, false, Ok(None)));
        assert_eq!(a.finish(), Err("--seed needs a value".to_string()));
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn rejects_positionals() {
        let _ = parse("oops");
    }

    /// A bad number is an `Err` naming the flag; unwrapping it is the
    /// only way to a panic.
    #[test]
    #[should_panic(expected = "--seed")]
    fn rejects_bad_numbers() {
        let a = parse("--seed banana");
        let _ = a.try_value::<u64>("seed").unwrap();
    }

    #[test]
    fn finish_names_what_was_not_read_the_way_it_was_written() {
        let read = |a: &Args| (a.flag("csv"), a.try_value::<f64>("gate"));
        for (line, verdict) in [
            ("--csv --gate 1.5", Ok(())),
            ("", Ok(())),
            ("--gate --csv", Err("--gate needs a value")),
            ("--csv yes", Err("--csv takes no value (got \"yes\")")),
            ("--gate 1 --gat 2", Err("unknown flag --gat")),
            ("--cvs", Err("unknown flag --cvs")),
        ] {
            let a = parse(line);
            assert!(read(&a).1.is_ok(), "{line}");
            assert_eq!(a.finish(), verdict.map_err(String::from), "{line}");
        }
        let a = parse("--gate 99,9");
        let why = read(&a).1.expect_err("not a number");
        assert_eq!(why, "--gate \"99,9\": invalid float literal");
    }
}
