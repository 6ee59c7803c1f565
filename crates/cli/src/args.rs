//! Minimal flag parsing: `--key value` pairs and `--flag` booleans.

use std::collections::HashMap;

/// Parsed arguments: flag map plus positional remainder.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    bools: Vec<String>,
}

impl Args {
    /// Parse `--key value` / `--switch` style argument lists. `keys`
    /// names the flags that take a value, `switches` those that take
    /// none; any other flag is an error.
    pub fn parse(argv: &[String], keys: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            if switches.contains(&key) {
                out.bools.push(key.to_string());
                i += 1;
            } else if keys.contains(&key) {
                let val = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("`--{key}` expects a value"))?;
                out.flags.insert(key.to_string(), val.clone());
                i += 2;
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(out)
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing `--{key}`"))
    }

    /// Parsed numeric value with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("`--{key}` got unparsable value `{s}`")),
        }
    }

    /// Whether a boolean switch was passed.
    pub fn switch(&self, key: &str) -> bool {
        self.bools.iter().any(|b| b == key)
    }
}

/// Parse a comma-separated list of cycle counts; accepts scientific
/// notation (`8e9`) and plain integers.
pub fn parse_cycles_list(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .map(|t| {
            let t = t.trim();
            if let Ok(v) = t.parse::<u64>() {
                return Ok(v);
            }
            t.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 1.0)
                .map(|v| v.round() as u64)
                .ok_or_else(|| format!("bad cycle count `{t}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = Args::parse(
            &sv(&["--seed", "7", "--heavy", "--out", "x.jsonl"]),
            &["seed", "out"],
            &["heavy"],
        )
        .unwrap();
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("out"), Some("x.jsonl"));
        assert!(a.switch("heavy"));
        assert!(!a.switch("light"));
        assert_eq!(a.num::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.num::<u64>("scale", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_dangling_flag_and_positional() {
        assert!(Args::parse(&sv(&["--seed"]), &["seed"], &[]).is_err());
        assert!(Args::parse(&sv(&["seed", "7"]), &["seed"], &[]).is_err());
        let a = Args::parse(&sv(&["--x", "nope"]), &["x", "y"], &[]).unwrap();
        assert!(a.num::<u64>("x", 0).is_err());
        assert!(a.require("y").is_err());
        let err = Args::parse(&sv(&["--shard", "4"]), &["shards"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --shard");
    }

    #[test]
    fn cycles_list_supports_scientific() {
        assert_eq!(
            parse_cycles_list("8e9, 1000000000,3.5e9").unwrap(),
            vec![8_000_000_000, 1_000_000_000, 3_500_000_000]
        );
        assert!(parse_cycles_list("abc").is_err());
        assert!(parse_cycles_list("0.2").is_err());
    }
}
