//! The job protocol: what a client may ask and what the server answers.
//!
//! A request is one flat [`WireMsg`] with an `op` field:
//!
//! * `op: "sim"` — simulate (or recall) one `(kernel, config, scale)`
//!   cell. Carries a [`JobSpec`] plus the `verify` / `no_cache` flags.
//! * `op: "stats"` — return the server's lifetime counters.
//! * `op: "shutdown"` — acknowledge and stop accepting connections.
//!
//! A [`JobSpec`] deliberately names configurations the way the CLI does:
//! a [`ConfigSpec`] of machine class, backend, and the optional
//! overrides (enforcement mode, LSQ capacity, PCAX and filter geometry,
//! far-memory tier, sampling policy). Each field's value is the token of
//! its type's `Display`/`FromStr` pair, and [`ConfigSpec::set`] is the one
//! grammar both surfaces parse through: the wire key `pcax_act` is the CLI
//! flag `--pcax-act`. A value that parses also builds — geometry, threshold
//! and capacity bounds are checked at parse time, so a malformed request
//! is an `ok: false` reply, never a panicking worker. Every configuration
//! in the committed `table_hostperf` matrix is expressible (a unit test in
//! [`crate::replay`] pins the correspondence), and the server derives the
//! exact [`SimConfig`] through the same builder the experiment binaries
//! use, so a spec means the same simulation everywhere.
//!
//! A [`JobResponse`] carries the statistics as the canonical record text
//! ([`aim_bench::stats_text`]) in its `stats` string field, and
//! [`JobResponse::stats`] reads it back as a typed `SimStats`.

use std::fmt;
use std::str::FromStr;

use aim_pipeline::{
    BackendChoice, FarSpec, FilterConfig, LsqConfig, MachineClass, MemSpec, PcaxConfig,
    SampleSpec, SetsWays, SimConfig, SimStats,
};
use aim_predictor::EnforceMode;
use aim_types::token::parse_choice;
use aim_types::wire::{WireMsg, WireValue};
use aim_workloads::Scale;

/// A machine configuration, named the way the CLI names it. Combined with
/// a kernel and a scale it becomes a [`JobSpec`]. The default is the CLI's:
/// the baseline machine with the paper's SFC/MDT, nothing overridden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigSpec {
    /// Figure 4 machine column.
    pub machine: MachineClass,
    /// Backend family.
    pub backend: BackendChoice,
    /// Enforcement-mode override (`None` keeps the builder's class and
    /// backend default).
    pub mode: Option<EnforceMode>,
    /// LSQ capacity override (`None` keeps the class default).
    pub lsq: Option<LsqConfig>,
    /// PCAX prediction-table shape override (`None` keeps the builder
    /// default).
    pub pcax: Option<SetsWays>,
    /// PCAX no-alias acting-threshold override.
    pub pcax_act: Option<u8>,
    /// Filtered-LSQ filter shape override.
    pub filt: Option<SetsWays>,
    /// Filtered-LSQ counter-saturation override.
    pub filt_count: Option<u32>,
    /// Far-memory tier (`None` simulates the near-memory-only hierarchy).
    pub far: Option<FarSpec>,
    /// Sampled fast-forward execution policy (`None` runs full detail).
    pub sample: Option<SampleSpec>,
}

impl ConfigSpec {
    /// The field names, in wire order. Each is a wire key and, with `--`
    /// in front and `-` for `_`, a CLI flag.
    pub const FIELDS: [&'static str; 10] = [
        "machine", "backend", "mode", "lsq", "pcax", "pcax_act", "filt", "filt_count", "far",
        "sample",
    ];

    /// The fields whose wire values are integers rather than strings.
    const INTEGER_FIELDS: [&'static str; 2] = ["pcax_act", "filt_count"];

    /// A spec with every override left at the builder default.
    pub fn new(machine: MachineClass, backend: BackendChoice) -> ConfigSpec {
        ConfigSpec {
            machine,
            backend,
            ..ConfigSpec::default()
        }
    }

    /// Sets the field `key` (one of [`ConfigSpec::FIELDS`]) from its
    /// token. Bounds are checked here, with the same checks the table and
    /// threshold constructors assert, so every spec this accepts builds.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown key or a malformed or
    /// out-of-range token.
    pub fn set(&mut self, key: &str, token: &str) -> Result<(), String> {
        match key {
            "machine" => self.machine = token.parse()?,
            "backend" => self.backend = token.parse()?,
            "mode" => self.mode = Some(token.parse()?),
            "lsq" => self.lsq = Some(token.parse()?),
            "pcax" => self.pcax = Some(token.parse()?),
            "pcax_act" => {
                let act = token.parse().map_err(|_| format!("bad pcax threshold `{token}`"))?;
                PcaxConfig { no_alias_act: act, ..PcaxConfig::baseline() }.check()?;
                self.pcax_act = Some(act);
            }
            "filt" => self.filt = Some(token.parse()?),
            "filt_count" => {
                let count = token.parse().map_err(|_| format!("bad filter count `{token}`"))?;
                FilterConfig { max_count: count, ..FilterConfig::baseline() }.check()?;
                self.filt_count = Some(count);
            }
            "far" => self.far = Some(token.parse()?),
            "sample" => self.sample = Some(token.parse()?),
            other => return Err(format!("unknown configuration field `{other}`")),
        }
        Ok(())
    }

    /// Binds this configuration to a kernel and scale.
    pub fn job(&self, kernel: &str, scale: Scale) -> JobSpec {
        JobSpec {
            kernel: kernel.to_string(),
            scale,
            config: *self,
        }
    }

    /// Derives the exact [`SimConfig`] through the shared builder.
    pub fn to_config(&self) -> SimConfig {
        let mut b = SimConfig::machine(self.machine).backend(self.backend);
        if let Some(mode) = self.mode {
            b = b.mode(mode);
        }
        if let Some(lsq) = self.lsq {
            b = b.lsq(lsq);
        }
        if self.pcax.is_some() || self.pcax_act.is_some() {
            let baseline = PcaxConfig::baseline();
            b = b.pcax(PcaxConfig {
                table: self.pcax.map_or(baseline.table, SetsWays::low_bits),
                no_alias_act: self.pcax_act.unwrap_or(baseline.no_alias_act),
                ..baseline
            });
        }
        if self.filt.is_some() || self.filt_count.is_some() {
            let baseline = FilterConfig::baseline();
            let shape = self.filt.unwrap_or(baseline.geometry().shape());
            b = b.filter(FilterConfig {
                sets: shape.sets,
                ways: shape.ways,
                max_count: self.filt_count.unwrap_or(baseline.max_count),
            });
        }
        if let Some(far) = self.far {
            b = b.mem(MemSpec::figure4().with_far(far));
        }
        if let Some(sample) = self.sample {
            b = b.sample(sample);
        }
        b.build()
    }
}

/// One simulation request: a kernel, a scale, and a [`ConfigSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (must exist in the `aim-workloads` registry).
    pub kernel: String,
    /// Workload scale.
    pub scale: Scale,
    /// The machine configuration.
    pub config: ConfigSpec,
}

impl JobSpec {
    /// Encodes this spec (and its flags) as an `op: "sim"` request.
    pub fn to_wire(&self, verify: bool, no_cache: bool) -> WireMsg {
        let c = &self.config;
        let mut msg = WireMsg::new();
        msg.put_str("op", "sim")
            .put_str("kernel", &self.kernel)
            .put_str("scale", &self.scale.to_string())
            .put_str("machine", &c.machine.to_string())
            .put_str("backend", c.backend.token());
        if let Some(mode) = c.mode {
            msg.put_str("mode", &mode.to_string());
        }
        if let Some(lsq) = c.lsq {
            msg.put_str("lsq", &lsq.to_string());
        }
        if let Some(pcax) = c.pcax {
            msg.put_str("pcax", &pcax.to_string());
        }
        if let Some(act) = c.pcax_act {
            msg.put_u64("pcax_act", u64::from(act));
        }
        if let Some(filt) = c.filt {
            msg.put_str("filt", &filt.to_string());
        }
        if let Some(count) = c.filt_count {
            msg.put_u64("filt_count", u64::from(count));
        }
        if let Some(far) = c.far {
            msg.put_str("far", &far.to_string());
        }
        if let Some(sample) = c.sample {
            msg.put_str("sample", &sample.to_string());
        }
        if verify {
            msg.put_bool("verify", true);
        }
        if no_cache {
            msg.put_bool("no_cache", true);
        }
        msg
    }

    /// Decodes an `op: "sim"` request. Every configuration field parses
    /// through [`ConfigSpec::set`].
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the missing, mistyped, or
    /// malformed field.
    pub fn from_wire(msg: &WireMsg) -> Result<JobSpec, String> {
        let missing: Vec<String> = ["kernel", "scale", "machine", "backend"]
            .iter()
            .filter(|key| msg.get(key).is_none())
            .map(|key| format!("`{key}`"))
            .collect();
        if !missing.is_empty() {
            return Err(format!("sim request is missing the {} field(s)", missing.join(", ")));
        }
        let text = |key: &str| {
            msg.str_field(key).ok_or_else(|| format!("`{key}` must be a string"))
        };
        let kernel = text("kernel")?.to_string();
        let scale = text("scale")?.parse().map_err(|e| format!("`scale`: {e}"))?;
        let mut config = ConfigSpec::default();
        for key in ConfigSpec::FIELDS {
            let token = match msg.get(key) {
                None => continue,
                Some(WireValue::U64(n)) if ConfigSpec::INTEGER_FIELDS.contains(&key) => {
                    n.to_string()
                }
                Some(WireValue::Str(s)) if !ConfigSpec::INTEGER_FIELDS.contains(&key) => s.clone(),
                Some(_) => return Err(format!("`{key}` has the wrong JSON type")),
            };
            config.set(key, &token).map_err(|e| format!("`{key}`: {e}"))?;
        }
        Ok(JobSpec { kernel, scale, config })
    }
}

/// Where a response's statistics came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Freshly simulated by this request.
    Sim,
    /// Recalled from the on-disk cache; no simulation ran.
    Cache,
    /// Folded onto another request's in-flight simulation (single-flight).
    Dedup,
}

impl Source {
    const ALL: [Source; 3] = [Source::Sim, Source::Cache, Source::Dedup];
}

/// The wire token: `sim`, `cache`, `dedup`.
impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Source::Sim => "sim",
            Source::Cache => "cache",
            Source::Dedup => "dedup",
        })
    }
}

impl FromStr for Source {
    type Err = String;

    fn from_str(s: &str) -> Result<Source, String> {
        parse_choice("source", &Source::ALL, s)
    }
}

/// The outcome of a `verify: true` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Nothing was cached; the recomputation seeded the entry.
    Cold,
    /// The recomputation matched the cached bytes exactly.
    Match,
    /// The recomputation diverged; the entry was replaced.
    Mismatch,
}

impl VerifyOutcome {
    const ALL: [VerifyOutcome; 3] =
        [VerifyOutcome::Cold, VerifyOutcome::Match, VerifyOutcome::Mismatch];
}

/// The wire token: `cold`, `match`, `mismatch`.
impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            VerifyOutcome::Cold => "cold",
            VerifyOutcome::Match => "match",
            VerifyOutcome::Mismatch => "mismatch",
        })
    }
}

impl FromStr for VerifyOutcome {
    type Err = String;

    fn from_str(s: &str) -> Result<VerifyOutcome, String> {
        parse_choice("verify outcome", &VerifyOutcome::ALL, s)
    }
}

/// The answer to one `op: "sim"` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// The cell's content address, in hex.
    pub key: String,
    /// Where the statistics came from.
    pub source: Source,
    /// Simulated cycles (the headline the CLI prints without parsing the
    /// statistics text).
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// FNV-1a fingerprint of the canonical statistics text
    /// ([`aim_bench::fingerprint_text`]).
    pub fingerprint: u64,
    /// The canonical statistics text itself (the `SimStats` record with
    /// the host clock zeroed, [`aim_bench::stats_text`]) — what
    /// byte-identity checks compare and [`JobResponse::stats`] reads.
    pub stats_text: String,
    /// Verify outcome, when the request asked for verification.
    pub verify: Option<VerifyOutcome>,
}

impl JobResponse {
    /// The statistics, read back from the record (host fields zero).
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the text is not a statistics
    /// record.
    pub fn stats(&self) -> Result<SimStats, String> {
        crate::cache::read_stats(&self.stats_text)
    }

    /// Encodes the response.
    pub fn to_wire(&self) -> WireMsg {
        let mut msg = WireMsg::new();
        msg.put_bool("ok", true)
            .put_str("key", &self.key)
            .put_str("source", &self.source.to_string())
            .put_u64("cycles", self.cycles)
            .put_u64("retired", self.retired)
            .put_str("fingerprint", &format!("{:#018x}", self.fingerprint))
            .put_str("stats", &self.stats_text);
        if let Some(v) = self.verify {
            msg.put_str("verify", &v.to_string());
        }
        msg
    }

    /// Decodes a response; a server-side failure (`ok: false`) surfaces as
    /// the `err` field's message.
    ///
    /// # Errors
    ///
    /// Returns the server's error message, or a one-line description of a
    /// malformed response.
    pub fn from_wire(msg: &WireMsg) -> Result<JobResponse, String> {
        if msg.bool_field("ok") != Some(true) {
            return Err(msg.str_field("err").unwrap_or("malformed response").to_string());
        }
        let field = |key: &str| {
            msg.str_field(key)
                .ok_or_else(|| format!("response is missing the `{key}` field"))
        };
        let source = field("source")?.parse()?;
        let verify = msg.str_field("verify").map(str::parse).transpose()?;
        let fingerprint = field("fingerprint")?;
        let fingerprint = fingerprint
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad fingerprint `{fingerprint}`"))?;
        Ok(JobResponse {
            key: field("key")?.to_string(),
            source,
            cycles: msg.u64_field("cycles").ok_or("response is missing `cycles`")?,
            retired: msg.u64_field("retired").ok_or("response is missing `retired`")?,
            fingerprint,
            stats_text: field("stats")?.to_string(),
            verify,
        })
    }
}

/// Encodes a server-side failure.
pub(crate) fn error_reply(message: &str) -> WireMsg {
    let mut msg = WireMsg::new();
    msg.put_bool("ok", false).put_str("err", message);
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::TableGeometry;

    fn spec() -> JobSpec {
        JobSpec {
            kernel: "gzip".to_string(),
            scale: Scale::Tiny,
            config: ConfigSpec {
                lsq: Some(LsqConfig::aggressive_120x80()),
                ..ConfigSpec::new(MachineClass::Aggressive, BackendChoice::Lsq)
            },
        }
    }

    #[test]
    fn specs_round_trip_through_the_wire() {
        let s = spec();
        let msg = s.to_wire(true, false);
        assert_eq!(msg.str_field("op"), Some("sim"));
        assert_eq!(msg.bool_field("verify"), Some(true));
        assert_eq!(msg.bool_field("no_cache"), None);
        let back = JobSpec::from_wire(&WireMsg::parse(&msg.to_json()).unwrap()).unwrap();
        assert_eq!(back, s);

        let with_mode = ConfigSpec {
            mode: Some(EnforceMode::All),
            ..ConfigSpec::new(MachineClass::Baseline, BackendChoice::SfcMdt)
        }
        .job("mcf", Scale::Small);
        let back = JobSpec::from_wire(&with_mode.to_wire(false, true)).unwrap();
        assert_eq!(back, with_mode);
    }

    #[test]
    fn geometry_overrides_round_trip_through_the_wire() {
        let full = ConfigSpec {
            mode: Some(EnforceMode::TotalOrder),
            lsq: Some(LsqConfig::aggressive_256x256()),
            pcax: Some(SetsWays { sets: 256, ways: 1 }),
            pcax_act: Some(3),
            filt: Some(SetsWays { sets: 512, ways: 4 }),
            filt_count: Some(31),
            far: Some(FarSpec::new(400, 64, 8)),
            sample: SampleSpec::new(2_000, 500, 10),
            ..ConfigSpec::new(MachineClass::Huge, BackendChoice::Pcax)
        }
        .job("swim", Scale::Tiny);
        let msg = full.to_wire(false, false);
        assert_eq!(msg.str_field("machine"), Some("huge"));
        assert_eq!(msg.str_field("pcax"), Some("256x1"));
        assert_eq!(msg.u64_field("pcax_act"), Some(3));
        assert_eq!(msg.str_field("filt"), Some("512x4"));
        assert_eq!(msg.u64_field("filt_count"), Some(31));
        assert_eq!(msg.str_field("far"), Some("400x64x8"));
        assert_eq!(msg.str_field("sample"), Some("2000x500x10"));
        let back = JobSpec::from_wire(&WireMsg::parse(&msg.to_json()).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn geometry_decode_errors_name_the_problem() {
        let base = |k: &str, v: &str| {
            let mut msg = WireMsg::new();
            msg.put_str("op", "sim")
                .put_str("kernel", "gzip")
                .put_str("scale", "tiny")
                .put_str("machine", "huge")
                .put_str("backend", "pcax")
                .put_str(k, v);
            msg
        };
        let err = JobSpec::from_wire(&base("pcax", "256")).unwrap_err();
        assert!(err.contains("SETSxWAYS"), "{err}");
        let err = JobSpec::from_wire(&base("far", "400x0x8")).unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let err = JobSpec::from_wire(&base("far", "400x64")).unwrap_err();
        assert!(err.contains("LATENCYxMSHRSxBATCH"), "{err}");
        let err = JobSpec::from_wire(&base("sample", "2000x0x10")).unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let err = JobSpec::from_wire(&base("sample", "2000x500")).unwrap_err();
        assert!(err.contains("WARMxDETAILxPERIODS"), "{err}");
        let mut act = base("pcax", "256x1");
        act.put_u64("pcax_act", 700);
        let err = JobSpec::from_wire(&act).unwrap_err();
        assert!(err.contains("pcax_act"), "{err}");
        // Values a table or threshold constructor would panic on are
        // rejected at decode time, naming the field.
        for (key, token, why) in [
            ("pcax", "3x1", "power of two"),
            ("filt", "6x1", "power of two"),
            ("filt", "4x65", "at most 64 ways"),
            ("lsq", "0x0", "nonzero"),
        ] {
            let err = JobSpec::from_wire(&base(key, token)).unwrap_err();
            assert!(err.contains(&format!("`{key}`")) && err.contains(why), "{err}");
        }
        for (key, value, why) in [("pcax_act", 200, "1..=3"), ("filt_count", 0, "at least 1")] {
            let mut msg = base("pcax", "256x1");
            msg.put_u64(key, value);
            let err = JobSpec::from_wire(&msg).unwrap_err();
            assert!(err.contains(key) && err.contains(why), "{err}");
        }
        let err = JobSpec::from_wire(&base("pcax_act", "2")).unwrap_err();
        assert!(err.contains("pcax_act") && err.contains("type"), "{err}");
    }

    #[test]
    fn spec_decode_errors_name_the_problem() {
        let mut missing = WireMsg::new();
        missing.put_str("op", "sim").put_str("kernel", "gzip");
        let err = JobSpec::from_wire(&missing).unwrap_err();
        assert!(err.contains("missing") && err.contains("backend"), "{err}");

        let mut bad = WireMsg::new();
        bad.put_str("op", "sim")
            .put_str("kernel", "gzip")
            .put_str("scale", "tiny")
            .put_str("machine", "baseline")
            .put_str("backend", "lsq")
            .put_str("lsq", "0x7");
        assert!(JobSpec::from_wire(&bad).unwrap_err().contains("0x7"));
    }

    #[test]
    fn responses_round_trip_including_verify() {
        let stats = SimStats { cycles: 123, retired: 456, ..SimStats::default() };
        let resp = JobResponse {
            key: "ab".repeat(16),
            source: Source::Cache,
            cycles: 123,
            retired: 456,
            fingerprint: 0xdead_beef,
            stats_text: aim_bench::stats_text(&stats),
            verify: Some(VerifyOutcome::Match),
        };
        let back =
            JobResponse::from_wire(&WireMsg::parse(&resp.to_wire().to_json()).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.stats(), Ok(stats));
    }

    #[test]
    fn error_replies_decode_to_their_message() {
        let err = JobResponse::from_wire(&error_reply("no such kernel `zip9`")).unwrap_err();
        assert_eq!(err, "no such kernel `zip9`");
    }

    #[test]
    fn config_spec_builds_through_the_shared_builder() {
        let cfg = spec().config.to_config();
        let expected = SimConfig::machine(MachineClass::Aggressive)
            .backend(BackendChoice::Lsq)
            .lsq(LsqConfig::aggressive_120x80())
            .build();
        assert_eq!(format!("{cfg:?}"), format!("{expected:?}"));
    }

    #[test]
    fn geometry_overrides_build_like_the_cli() {
        let spec = ConfigSpec {
            pcax: Some(SetsWays { sets: 256, ways: 1 }),
            pcax_act: Some(3),
            far: Some(FarSpec::new(200, 32, 4)),
            sample: SampleSpec::new(4_000, 1_000, 8),
            ..ConfigSpec::new(MachineClass::Huge, BackendChoice::Pcax)
        };
        let cfg = spec.to_config();
        let expected = SimConfig::machine(MachineClass::Huge)
            .backend(BackendChoice::Pcax)
            .pcax(PcaxConfig {
                table: TableGeometry {
                    sets: 256,
                    ways: 1,
                    ..PcaxConfig::baseline().table
                },
                no_alias_act: 3,
                ..PcaxConfig::baseline()
            })
            .mem(MemSpec::figure4().with_far(FarSpec::new(200, 32, 4)))
            .sample(SampleSpec::new(4_000, 1_000, 8).unwrap())
            .build();
        assert_eq!(format!("{cfg:?}"), format!("{expected:?}"));
    }
}
