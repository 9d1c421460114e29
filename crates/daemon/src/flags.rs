//! Flag-value helpers shared by the `oregami` and `oregamid` argument
//! parsers, so "the next argument, parsed, or a usage message naming the
//! flag" is written once.

use std::str::FromStr;

/// The argument after `flag`.
pub fn value(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The argument after `flag`, parsed; `what` names it in the error
/// (`bad --fail-proc id`, `bad --workers value`).
pub fn parsed<T: FromStr>(
    it: &mut dyn Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    value(it, flag)?
        .parse()
        .map_err(|_| format!("bad {flag} {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_or_name_the_flag() {
        let mut it = ["7", "x"].into_iter().map(String::from);
        assert_eq!(parsed::<u32>(&mut it, "--n", "value"), Ok(7));
        assert_eq!(
            parsed::<u32>(&mut it, "--n", "id"),
            Err("bad --n id".to_string())
        );
        assert_eq!(value(&mut it, "--n"), Err("--n needs a value".to_string()));
    }
}
