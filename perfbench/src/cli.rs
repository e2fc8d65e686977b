//! Command-line arguments:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured wall-clock seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// A usage message for a missing, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err(String::from("--seconds must be at least 1"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "lp_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "lp_churn");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(parse(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse(&strings(&["--workload"])).is_err());
    }
}
