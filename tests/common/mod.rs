//! CSV helpers shared by the integration suites: an RFC-4180 row
//! splitter and column masking by header name.

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use acs_runtime::CSV_HEADER;

/// The solver-counter columns. A shared solver cache makes these
/// counters, and only these, depend on thread interleaving and on how
/// warm the cache already is.
pub const SOLVER_COUNTERS: [&str; 4] = [
    "solver_lookups",
    "solver_cache_hits",
    "boundary_resolves",
    "resolves_adopted",
];

/// Splits one CSV row into fields, honoring RFC-4180 quoting (the sink
/// quotes fields containing commas; masking by column must not split
/// inside them).
pub fn split_csv(row: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = row.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Zero-based position of column `name` in [`CSV_HEADER`].
pub fn column(name: &str) -> usize {
    split_csv(CSV_HEADER)
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("CSV_HEADER has no column `{name}`"))
}

/// `row`'s fields, with those of the named columns replaced by `mask`,
/// joined by commas.
pub fn mask_columns(row: &str, names: &[&str], mask: &str) -> String {
    let mut fields = split_csv(row);
    for name in names {
        if let Some(field) = fields.get_mut(column(name)) {
            *field = mask.to_string();
        }
    }
    fields.join(",")
}
