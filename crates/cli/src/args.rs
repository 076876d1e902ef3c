//! Minimal argument parsing (flags, `--key value` pairs, positionals) —
//! enough for the CLI without an external dependency.

use std::collections::HashMap;

/// Parsed command line.
pub struct Args {
    /// Positional arguments in order (the subcommand is `positional[0]`).
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an iterator of raw arguments. `--key value` becomes an
    /// option; a `--key` followed by another `--` token (or nothing) is a
    /// flag.
    pub fn parse(raw: impl Iterator<Item = String>) -> Self {
        let raw: Vec<String> = raw.collect();
        let mut positional = Vec::new();
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    options.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args {
            positional,
            options,
            flags,
        }
    }

    /// True if the bare flag was present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string value of `--name value`.
    pub fn raw_value(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Rejects any `--key`, flag or option, named in none of the
    /// space-separated `accepted` lists (naming the alphabetically first),
    /// so a mistyped or retired flag is a usage error rather than a
    /// silently different run.
    pub fn accept_only(&self, accepted: &[&str]) -> Result<(), String> {
        let known = |key: &&String| accepted.iter().any(|l| l.split(' ').any(|k| k == *key));
        let unknown = self.flags.iter().chain(self.options.keys());
        match unknown.filter(|key| !known(key)).min() {
            Some(key) => Err(format!("unknown option --{key} (see `modchecker help`)")),
            None => Ok(()),
        }
    }

    /// Parsed numeric value of `--name value`.
    pub fn value(&self, name: &str) -> Result<Option<usize>, String> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn mixed_arguments() {
        let a = parse("check --vms 15 --module http.sys --static");
        assert_eq!(a.positional, vec!["check"]);
        assert_eq!(a.value("vms").unwrap(), Some(15));
        assert_eq!(a.raw_value("module"), Some("http.sys"));
        assert!(a.flag("static"));
        assert!(!a.flag("json"));
    }

    #[test]
    fn flag_before_option() {
        let a = parse("check --json --vms 4");
        assert!(a.flag("json"));
        assert_eq!(a.value("vms").unwrap(), Some(4));
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse("check --vms lots");
        assert!(a.value("vms").is_err());
    }

    #[test]
    fn unknown_flags_and_options_are_rejected_by_name() {
        let accepted = &["vms module", "json"];
        assert!(parse("check --vms 4 --module hal.dll --json")
            .accept_only(accepted)
            .is_ok());
        let err = parse("check --vms 4 --parallel --module hal.dll")
            .accept_only(accepted)
            .unwrap_err();
        assert!(err.contains("--parallel"), "{err}");
        let err = parse("fleet-check --shardz 2 --json --max-inflight-per-vm 4")
            .accept_only(accepted)
            .unwrap_err();
        assert!(err.contains("--max-inflight-per-vm"), "{err}");
    }

    #[test]
    fn trailing_flag() {
        let a = parse("sweep --loaded");
        assert!(a.flag("loaded"));
    }
}
