//! The one writer behind every `BENCH_*.json` report.
//!
//! A report is a header of scalar fields (`schema` first) followed by a
//! list of rows, each a flat object: the row type's
//! [`record!`](aim_types::record!) field list, in declaration order. Both
//! are [`WireMsg`]s, so the escaping and number rules are the job
//! protocol's (floats with six decimals, non-finite floats as
//! `0.000000`), and [`Report::to_json`] renders them in the committed
//! layout — one header field per line, one row per line:
//!
//! ```json
//! {
//!   "schema": "aim-bench-sweep/v1",
//!   "artifact": "fig5_baseline",
//!   "rows": [
//!     {"workload": "gzip", "config": "sfc-mdt-enf", "sim_cycles": 193344}
//!   ]
//! }
//! ```

use aim_types::record::{Field, Record};
use aim_types::wire::{WireMsg, WireValue};

/// A machine-readable report: its fields, and where it is written.
pub trait Report {
    /// One row of the report: a record whose fields are the row's.
    type Row: Record;
    /// Environment variable that overrides the output path.
    const PATH_ENV: &'static str;
    /// File written in the working directory when the variable is unset.
    const DEFAULT_PATH: &'static str;
    /// Key of the row list.
    const ROWS_KEY: &'static str = "rows";

    /// Appends the scalar fields, `schema` first.
    fn header(&self, msg: &mut WireMsg);

    /// The rows, in report order.
    fn rows(&self) -> &[Self::Row];

    /// Appends one row's fields: its record.
    fn row(row: &Self::Row, msg: &mut WireMsg) {
        row.put("", msg);
    }

    /// Renders the report as JSON.
    fn to_json(&self) -> String {
        let mut header = WireMsg::new();
        self.header(&mut header);
        let mut out = String::from("{\n  ");
        header.write_fields(&mut out, ",\n  ", ": ");
        out.push_str(&format!(",\n  \"{}\": [", Self::ROWS_KEY));
        for (i, row) in self.rows().iter().enumerate() {
            let mut msg = WireMsg::new();
            Self::row(row, &mut msg);
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            msg.write_fields(&mut out, ", ", ": ");
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the report to `$PATH_ENV` if set, else to `DEFAULT_PATH`,
    /// and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write_default(&self) -> std::io::Result<String> {
        let path = std::env::var(Self::PATH_ENV).unwrap_or_else(|_| Self::DEFAULT_PATH.to_string());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The scalar header of the report at `DEFAULT_PATH` in the working
    /// directory (the committed copy), if one is there and well-formed.
    fn committed_header() -> Option<WireMsg> {
        let text = std::fs::read_to_string(Self::DEFAULT_PATH).ok()?;
        let (header, _) = text.split_once(&format!(",\n  \"{}\"", Self::ROWS_KEY))?;
        WireMsg::parse(&format!("{header}\n}}")).ok()
    }

    /// The rows of the committed report at `DEFAULT_PATH` in the working
    /// directory, if one is there and every row reads back.
    fn committed_rows() -> Option<Vec<Self::Row>> {
        Self::rows_from_json(&std::fs::read_to_string(Self::DEFAULT_PATH).ok()?)
    }

    /// The rows of a report rendered by [`Report::to_json`] (one row per
    /// line), if every row reads back.
    fn rows_from_json(text: &str) -> Option<Vec<Self::Row>> {
        let (_, rows) = text.split_once(&format!("\"{}\": [", Self::ROWS_KEY))?;
        rows.lines()
            .map(|line| line.trim().trim_end_matches(','))
            .filter(|line| line.starts_with('{'))
            .map(|line| Self::Row::read(&WireMsg::parse(line).ok()?).ok())
            .collect()
    }

    /// The rows as CSV: a header line of the row record's field names,
    /// then one line per row with the JSON's values (strings unquoted).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows().iter().enumerate() {
            let msg = row.write();
            if i == 0 {
                out.push_str(&msg.keys().collect::<Vec<_>>().join(","));
                out.push('\n');
            }
            let cells: Vec<String> = msg
                .keys()
                .map(|key| match msg.get(key).expect("a key of this message") {
                    WireValue::Str(s) => s.clone(),
                    WireValue::U64(n) => n.to_string(),
                    WireValue::F64(x) if x.is_finite() => format!("{x:.6}"),
                    WireValue::F64(_) => "0.000000".to_string(),
                    WireValue::Bool(b) => b.to_string(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// [`Report::write_default`], then one line saying where the
    /// `{label} report` went, and with `--csv PATH` the rows as CSV
    /// ([`Report::to_csv`]) too; a write failure is reported on stderr,
    /// not fatal.
    fn publish(&self, label: &str) {
        match self.write_default() {
            Ok(path) => println!("{label} report — {path}"),
            Err(e) => eprintln!("{label} report not written: {e}"),
        }
        if let Some(path) = crate::csv_path_from_args() {
            match std::fs::write(&path, self.to_csv()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("{label} csv not written: {e}"),
            }
        }
    }
}
