//! The correctness gate: every CSV the program produces, in-process or
//! served, passes through [`check_csv`] before any of its numbers are
//! reported, and every in-process record through [`check_records`].

use acs_runtime::sink::CSV_HEADER;
use acs_runtime::CellReport;

/// Columns that hold solver-call counters. A `reopt` cell whose solver
/// cache is shared across parallel runs (or across server submissions)
/// may count hits differently from run to run; its energies never do.
pub const SOLVER_COLUMNS: [&str; 4] = [
    "solver_lookups",
    "solver_cache_hits",
    "boundary_resolves",
    "resolves_adopted",
];

/// Splits one RFC-4180 CSV line (quoted fields, doubled quotes).
pub fn split_row(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                field.push('"');
                chars.next();
            }
            ('"', _) => quoted = !quoted,
            (',', false) => fields.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// A parsed result CSV: rows addressable by header name.
pub struct Table {
    header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn parse(text: &str) -> Result<Table, String> {
        let mut lines = text.lines();
        let header_line = lines.next().ok_or("empty CSV")?;
        if header_line != CSV_HEADER {
            return Err("CSV header differs from the sink's".into());
        }
        let header = split_row(header_line);
        let rows: Vec<Vec<String>> = lines.map(split_row).collect();
        if let Some(bad) = rows.iter().position(|r| r.len() != header.len()) {
            return Err(format!("CSV row {} has the wrong column count", bad + 1));
        }
        Ok(Table { header, rows })
    }

    pub fn col(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("CSV_HEADER has no column `{name}`"))
    }

    pub fn num(&self, row: &[String], name: &str) -> Result<f64, String> {
        let raw = &row[self.col(name)];
        raw.parse()
            .map_err(|_| format!("column `{name}` holds `{raw}`, not a number"))
    }
}

/// Checks one campaign's CSV document: `cells` rows, no failed cell,
/// `dynamic + static + idle = mean` energy on every row, no deadline
/// miss on a worst-case-draw cell under periodic releases (the
/// guarantee the offline schedules are synthesized for), and every
/// trace-backed cell replaying all `trace_jobs` records in each run.
pub fn check_csv(text: &str, cells: usize, trace_jobs: u64) -> Result<Table, String> {
    let t = Table::parse(text)?;
    if t.rows.len() != cells {
        return Err(format!("{} records for {cells} cells", t.rows.len()));
    }
    let status = t.col("status");
    let workload = t.col("workload");
    let arrivals = t.col("arrivals");
    for (i, row) in t.rows.iter().enumerate() {
        let at = |what: String| {
            let coords = ["cores", "placement", "class", "arrivals"].map(|c| &row[t.col(c)]);
            format!("record {i} ({},{coords:?}): {what}", row[..5].join(","))
        };
        if row[status] != "ok" {
            return Err(at(format!("failed: {}", row[t.col("error")])));
        }
        let mean = t.num(row, "mean_energy")?;
        let parts = t.num(row, "dynamic_energy")?
            + t.num(row, "static_energy")?
            + t.num(row, "idle_energy")?;
        if (parts - mean).abs() > 1e-9 * mean.abs().max(1.0) {
            return Err(at(format!(
                "energy does not reconcile: dynamic+static+idle = {parts}, mean = {mean}"
            )));
        }
        let misses = t.num(row, "deadline_misses")?;
        if row[workload] == "wcec" && row[arrivals] == "periodic" && misses > 0.0 {
            return Err(at(format!("{misses} deadline misses at worst-case draws")));
        }
        if row[arrivals] == "trace" {
            let expected = t.num(row, "runs")? * trace_jobs as f64;
            let done = t.num(row, "jobs_completed")?;
            if done != expected {
                return Err(at(format!(
                    "trace replay completed {done} of {expected} jobs"
                )));
            }
        }
    }
    Ok(t)
}

/// Checks what the CSV cannot show: the ReOpt lookup partition
/// `solver_lookups == warm_carry_hits + solver_cache_hits +
/// boundary_resolves` on every cell.
pub fn check_records(cells: &[CellReport]) -> Result<(), String> {
    for c in cells {
        let Ok(s) = &c.outcome else {
            return Err(format!("cell {}/{} failed", c.task_set, c.policy));
        };
        if s.solver_lookups != s.warm_carry_hits + s.solver_cache_hits + s.boundary_resolves {
            return Err(format!(
                "cell {}/{}/{}: {} lookups != {} carried + {} cached + {} re-solved",
                c.task_set,
                c.schedule,
                c.policy,
                s.solver_lookups,
                s.warm_carry_hits,
                s.solver_cache_hits,
                s.boundary_resolves
            ));
        }
    }
    Ok(())
}

/// The CSV with the solver-counter columns blanked on `reopt` rows —
/// the form in which two runs of one scenario must agree byte for byte.
pub fn masked(text: &str) -> String {
    let header = split_row(CSV_HEADER);
    let idx: Vec<usize> = SOLVER_COLUMNS
        .iter()
        .map(|c| header.iter().position(|h| h == c).expect("solver column"))
        .collect();
    let policy = header.iter().position(|h| h == "policy").expect("policy");
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut row = split_row(line);
        if row.len() == header.len() && row[policy] == "reopt" {
            for &i in &idx {
                row[i].clear();
            }
        }
        let quoted: Vec<String> = row
            .iter()
            .map(|f| {
                if f.contains([',', '"', '\n', '\r']) {
                    format!("\"{}\"", f.replace('"', "\"\""))
                } else {
                    f.clone()
                }
            })
            .collect();
        out.push_str(&quoted.join(","));
        out.push('\n');
    }
    out
}

/// Asserts two CSV documents of one scenario agree, solver counters
/// masked on `reopt` rows.
pub fn same_results(what: &str, a: &str, b: &str) -> Result<(), String> {
    let (a, b) = (masked(a), masked(b));
    if a == b {
        return Ok(());
    }
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or(a.lines().count().min(b.lines().count()));
    Err(format!("{what}: CSVs differ at line {}", line + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_row_handles_quotes() {
        assert_eq!(
            split_row(r#"a,"b,c","d""e",,f"#),
            ["a", "b,c", "d\"e", "", "f"]
        );
    }
}
