//! The one writer behind every `BENCH_*.json` report.
//!
//! A report is a header of scalar fields (`schema` first) followed by a
//! list of rows, each a flat object. Both are [`WireMsg`]s, so the
//! escaping and number rules are the job protocol's (floats with six
//! decimals, non-finite floats as `0.000000`), and [`Report::to_json`]
//! renders them in the committed layout — one header field per line, one
//! row per line:
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

use aim_types::wire::WireMsg;

/// A machine-readable report: its fields, and where it is written.
pub trait Report {
    /// One row of the report.
    type Row;
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

    /// Appends one row's fields.
    fn row(row: &Self::Row, msg: &mut WireMsg);

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

    /// [`Report::write_default`], then one line saying where the
    /// `{label} report` went; a write failure is reported on stderr, not
    /// fatal.
    fn publish(&self, label: &str) {
        match self.write_default() {
            Ok(path) => println!("{label} report — {path}"),
            Err(e) => eprintln!("{label} report not written: {e}"),
        }
    }
}
