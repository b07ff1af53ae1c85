//! Command-line parsing shared by the bench binaries that write or gate
//! committed reports (`bench_suite`, `bench_ratchet`): every argument
//! must be a known flag, so a typo or `--help` never falls through to a
//! default run.

/// A parsed command line: `(flag, value)` pairs in argument order, with
/// `value` `None` for switches. Valued flags may repeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(f, _)| f == name)
    }

    /// The last value given for `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).pop()
    }

    /// Every value given for `name`, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(f, _)| f == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// Parse `args` (without the program name) against the accepted
/// `switches` and `valued` flags. `Ok(None)` means help was requested
/// (`--help` or `-h`); unknown flags, stray positionals and valued flags
/// missing their value are errors.
pub fn parse_flags(
    args: &[String],
    switches: &[&str],
    valued: &[&str],
) -> Result<Option<Flags>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        if name == "--help" || name == "-h" {
            return Ok(None);
        } else if switches.contains(&name) {
            flags.push((arg.clone(), None));
        } else if valued.contains(&name) {
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            flags.push((arg.clone(), Some(value.clone())));
        } else if name.starts_with('-') {
            return Err(format!("unknown flag {name}"));
        } else {
            return Err(format!("unexpected argument '{name}'"));
        }
    }
    Ok(Some(Flags(flags)))
}

/// [`parse_flags`] on the process arguments, for a binary's `main`:
/// prints `usage` and exits 0 on help, or prints the error and usage to
/// stderr and exits 2.
pub fn flags_or_exit(usage: &str, switches: &[&str], valued: &[&str]) -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_flags(&args, switches, valued) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Flags>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args, &["--quick"], &["--out", "--fresh"])
    }

    #[test]
    fn accepts_known_switches_and_values() {
        let f = parse(&["--quick", "--out", "a.json"]).unwrap().unwrap();
        assert!(f.has("--quick"));
        assert_eq!(f.value("--out"), Some("a.json"));
        assert_eq!(f.value("--fresh"), None);
        let none = parse(&[]).unwrap().unwrap();
        assert!(!none.has("--quick"));
    }

    #[test]
    fn valued_flags_repeat_in_order() {
        let f = parse(&["--fresh", "a", "--fresh", "b"]).unwrap().unwrap();
        assert_eq!(f.values("--fresh"), vec!["a", "b"]);
        assert_eq!(f.value("--fresh"), Some("b"));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]), Ok(None));
        assert_eq!(parse(&["--quick", "-h", "--bogus"]), Ok(None));
    }

    #[test]
    fn rejects_unknown_flags_and_positionals() {
        assert_eq!(parse(&["--quik"]), Err("unknown flag --quik".to_string()));
        assert_eq!(
            parse(&["--quick", "extra"]),
            Err("unexpected argument 'extra'".to_string())
        );
    }

    #[test]
    fn rejects_missing_value() {
        assert_eq!(parse(&["--out"]), Err("--out needs a value".to_string()));
    }
}
