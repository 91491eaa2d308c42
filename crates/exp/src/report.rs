//! Plain-text rendering for figures and tables.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a ratio/speedup with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an error percentage in scientific-ish style matching the
/// paper's log-scale error plots.
pub fn err_pct(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v >= 0.01 {
        format!("{v:.3}%")
    } else {
        format!("{v:.1e}%")
    }
}

/// Shade characters for heat-map cells by intensity in [0, 1].
pub fn shade(intensity: f64) -> char {
    const RAMP: [char; 6] = [' ', '.', ':', '+', '*', '#'];
    let idx = (intensity.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx]
}

/// This process's footprint line so far, from `/proc/self/status` and
/// fields 10, 14 and 15 of `/proc/self/stat` (minflt, utime, stime — all
/// threads', exited workers included); `None` where there is no such
/// `/proc`.
fn footprint() -> Option<String> {
    /// `USER_HZ`, the unit of utime / stime: 100 on every Linux ABI.
    const TICKS_PER_S: f64 = 100.0;
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let hwm_kb: f64 = hwm.trim().strip_suffix("kB")?.trim().parse().ok()?;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; count from its `)`,
    // after which the first word is field 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let seconds = |field: usize| Some(fields.get(field - 3)?.parse::<f64>().ok()? / TICKS_PER_S);
    let (minor_faults, user_s, sys_s) = (fields.get(10 - 3)?, seconds(14)?, seconds(15)?);
    Some(format!(
        "footprint: peak_rss_mb {:.1}  minor_faults {minor_faults}  user_s {user_s:.2}  sys_s {sys_s:.2}",
        hwm_kb / 1024.0
    ))
}

/// Ends a figure binary's run with one line on **stderr**, `footprint:
/// peak_rss_mb <VmHWM>  minor_faults <n>  user_s <utime>  sys_s <stime>`
/// (stdout stays the figures, byte for byte); silent without `/proc`.
/// This is the whole full-scale cost of a run — user, sys, peak RSS, page
/// faults — from one command, with no shell `time`.
pub fn print_footprint() {
    if let Some(line) = footprint() {
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn footprint_reads_this_process() {
        let line = footprint().expect("/proc/self is readable on Linux");
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            (fields[0], fields[1], fields[3], fields[5], fields[7]),
            ("footprint:", "peak_rss_mb", "minor_faults", "user_s", "sys_s")
        );
        assert!(fields[2].parse::<f64>().unwrap() > 1.0, "a test binary holds over 1 MB: {line}");
        assert!(fields[4].parse::<u64>().unwrap() > 0, "and has faulted pages in: {line}");
        // CPU time grows while this thread spins: a 10 ms tick shows
        // within seconds on the busiest machine.
        let cpu = |line: &str| -> f64 {
            let f: Vec<&str> = line.split_whitespace().collect();
            f[6].parse::<f64>().unwrap() + f[8].parse::<f64>().unwrap()
        };
        let start = std::time::Instant::now();
        while cpu(&footprint().expect("still readable")) <= cpu(&line) {
            assert!(start.elapsed().as_secs() < 30, "user_s + sys_s never moved from {line}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1.0"]);
        t.row(vec!["longer", "2.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].starts_with("longer") && lines[3].ends_with("2.25"), "both rows render");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn shade_ramps() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(1.0), '#');
        assert!(shade(0.5) != ' ' && shade(0.5) != '#');
    }

    #[test]
    fn err_formatting() {
        assert_eq!(err_pct(0.0), "0");
        assert_eq!(err_pct(1.234), "1.234%");
        assert!(err_pct(0.0001).contains('e'));
    }
}
