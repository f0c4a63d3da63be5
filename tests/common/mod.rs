//! CSV helpers shared by the integration suites: an RFC-4180 row
//! splitter, column lookup by header name, and the fold of the two
//! cache-warmth solver counters into their sum.

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use acs_runtime::CSV_HEADER;

/// The two solver-counter columns that depend on how warm a shared
/// solver cache already is, and so on thread interleaving: a boundary
/// lookup one run answers from the cache is a resolve on another. Their
/// sum is fixed, and so are `solver_lookups` and `resolves_adopted`,
/// because a cache hit returns the bits a resolve would.
pub const CACHE_WARMTH_COUNTERS: [&str; 2] = ["solver_cache_hits", "boundary_resolves"];

/// `row` with the [`CACHE_WARMTH_COUNTERS`] folded into their sum: the
/// first column holds `hits + resolves`, the second `*`. Every other
/// field, the other solver counters included, stays as it is; a row
/// whose two fields are not both counts (a header, a failed cell) comes
/// back unchanged.
pub fn fold_cache_warmth(row: &str) -> String {
    let mut fields = split_csv(row);
    let [hits, resolves] = CACHE_WARMTH_COUNTERS.map(column);
    let count = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    let (Some(h), Some(r)) = (count(hits), count(resolves)) else {
        return row.to_string();
    };
    fields[hits] = (h + r).to_string();
    fields[resolves] = "*".to_string();
    fields.join(",")
}

/// Splits one CSV row into fields, honoring RFC-4180 quoting (the sink
/// quotes fields containing commas; folding by column must not split
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
