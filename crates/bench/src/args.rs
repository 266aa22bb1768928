//! What an experiment is given: the options after the subcommand
//! (`--scale <f64>`, `--seed <u64>`, `--datasets A,B,C`; anything else is a
//! usage error) and the dataset loading every experiment starts with.

use anc_data::registry::{self, Dataset, DatasetSpec};

/// One experiment's arguments.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Dataset size multiplier (the default depends on the experiment).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Explicit dataset list (registry names); empty = the experiment's own.
    pub datasets: Vec<String>,
}

impl Ctx {
    /// Parses the options that follow the subcommand. `Err` is a usage
    /// message.
    pub fn from_iter<I: IntoIterator<Item = String>>(
        args: I,
        default_scale: f64,
    ) -> Result<Self, String> {
        let mut out = Self { scale: default_scale, seed: 42, datasets: Vec::new() };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    out.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&s: &f64| s > 0.0 && s.is_finite())
                        .ok_or("--scale needs a positive float")?;
                }
                "--seed" => {
                    out.seed =
                        it.next().and_then(|v| v.parse().ok()).ok_or("--seed needs a u64")?;
                }
                "--datasets" => {
                    let list = it.next().ok_or("--datasets needs a comma-separated list")?;
                    out.datasets = list.split(',').map(|s| s.trim().to_string()).collect();
                    if let Some(bad) = out.datasets.iter().find(|n| registry::by_name(n).is_none())
                    {
                        return Err(format!("unknown dataset `{bad}`"));
                    }
                }
                other => return Err(format!("unrecognized argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// The datasets to run on: `--datasets` if given, else `default`.
    pub fn names(&self, default: &[&str]) -> Vec<String> {
        if self.datasets.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.datasets.clone()
        }
    }

    /// The registry entry called `name`.
    pub fn spec(name: &str) -> &'static DatasetSpec {
        registry::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"))
    }

    /// Generates the stand-in for `name` at `--scale`.
    pub fn load(&self, name: &str) -> Dataset {
        self.load_scaled(name, self.scale)
    }

    /// Generates the stand-in for `name` at an explicit size factor.
    pub fn load_scaled(&self, name: &str, factor: f64) -> Dataset {
        Self::spec(name).materialize_scaled(self.seed, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Ctx, String> {
        Ctx::from_iter(args.iter().map(|s| s.to_string()), 1.0)
    }

    #[test]
    fn defaults() {
        let a = Ctx::from_iter(Vec::<String>::new(), 0.5).unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 42);
        assert!(a.datasets.is_empty());
        assert_eq!(a.names(&["CO", "FB"]), vec!["CO", "FB"]);
    }

    #[test]
    fn full_parse() {
        let a = parse(&["--scale", "0.1", "--seed", "7", "--datasets", "CO,FB"]).unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.seed, 7);
        assert_eq!(a.datasets, vec!["CO", "FB"]);
        assert_eq!(a.names(&["LA"]), vec!["CO", "FB"]);
    }

    #[test]
    fn anything_else_is_a_usage_error() {
        for bad in [
            &["--typo"][..],
            &["--steps", "5"],
            &["stray"],
            &["--scale"],
            &["--scale", "n"],
            &["--scale", "0"],
            &["--seed", "-1"],
            &["--datasets"],
            &["--datasets", "CO,NOPE"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
