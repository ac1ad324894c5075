//! The fault plan: what to break, where, and under which seed.
//!
//! A [`FaultPlan`] is the single declarative input of the harness. It is
//! loaded from a small TOML subset (flat sections, scalar and
//! one-dimensional array values — exactly what a plan needs, parsed by a
//! ~100-line hand-rolled reader so the crate stays dependency-free) or
//! built in code. Every stochastic decision the plan induces is derived
//! from [`FaultPlan::seed`] through per-index RNG streams, so a plan is a
//! complete, replayable description of an outage scenario.

use crate::network::{IncidentSpec, NetworkFaults};
use simulator::IncidentKind;
use std::fmt;
use std::path::Path;

/// Which training stage a training fault targets.
///
/// Mirrors [`ovs_core::Stage`] but lives here so plans parse without
/// pulling trainer types into the plan grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSel {
    /// Stage 1: volume-to-speed pre-training.
    V2s,
    /// Stage 2: TOD-to-volume training.
    Tod2v,
    /// Stage 3: test-time TOD fitting.
    Fit,
    /// Any stage: the step list applies to all three loops.
    Any,
}

impl StageSel {
    /// Parses the plan-file spelling.
    pub fn parse(s: &str) -> Result<Self, PlanError> {
        match s {
            "v2s" => Ok(Self::V2s),
            "tod2v" => Ok(Self::Tod2v),
            "fit" => Ok(Self::Fit),
            "any" => Ok(Self::Any),
            other => Err(PlanError::new(format!(
                "unknown stage '{}' (expected v2s|tod2v|fit|any)",
                Clip(other)
            ))),
        }
    }

    /// Does this selector cover the given trainer stage?
    pub fn matches(self, stage: ovs_core::Stage) -> bool {
        matches!(
            (self, stage),
            (Self::Any, _)
                | (Self::V2s, ovs_core::Stage::V2s)
                | (Self::Tod2v, ovs_core::Stage::Tod2v)
                | (Self::Fit, ovs_core::Stage::Fit)
        )
    }
}

/// Layer 1: faults applied to the observed speed tensor before fitting.
///
/// All fields are probabilities per cell or per link in `[0, 1]`, except
/// `noise_std` (additive Gaussian sigma in m/s).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationFaults {
    /// Probability that a `(link, interval)` reading is dropped entirely
    /// (sensor outage — detected, excluded via the mask).
    pub dropout: f64,
    /// Sigma of additive Gaussian noise on surviving readings, in m/s.
    pub noise_std: f64,
    /// Probability that a link's sensor gets *stuck*: from a random onset
    /// interval onward it repeats its last reading. Undetected — the mask
    /// still marks those cells observed.
    pub stuck: f64,
    /// Probability that a surviving reading is corrupted to `NaN`/`Inf`.
    /// Detected by the sanitiser and converted to a masked-out cell.
    pub nonfinite: f64,
}

impl Default for ObservationFaults {
    fn default() -> Self {
        Self {
            dropout: 0.0,
            noise_std: 0.0,
            stuck: 0.0,
            nonfinite: 0.0,
        }
    }
}

impl ObservationFaults {
    /// Is any observation fault actually enabled?
    pub fn is_active(&self) -> bool {
        self.dropout > 0.0 || self.noise_std > 0.0 || self.stuck > 0.0 || self.nonfinite > 0.0
    }

    fn validate(&self) -> Result<(), PlanError> {
        for (name, p) in [
            ("dropout", self.dropout),
            ("stuck", self.stuck),
            ("nonfinite", self.nonfinite),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(PlanError::new(format!(
                    "observation.{name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        if !self.noise_std.is_finite() || self.noise_std < 0.0 {
            return Err(PlanError::new(format!(
                "observation.noise_std = {} must be finite and >= 0",
                self.noise_std
            )));
        }
        Ok(())
    }
}

/// Layer 2: faults injected into the training loops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingFaults {
    /// Which stage the step lists refer to (`None` = any stage).
    pub stage: Option<StageSel>,
    /// Steps at which the loss is forced to `NaN` after the real update
    /// computed it (simulating a numeric blow-up).
    pub nonfinite_steps: Vec<usize>,
    /// Steps at which the checkpoint-write hook is made to fail
    /// (simulating an interrupted write).
    pub ckpt_fail_steps: Vec<usize>,
    /// `false` (default): each listed fault fires once — a transient
    /// fault the rollback retry replays past. `true`: the fault fires on
    /// every visit to the step — a persistent fault that must exhaust the
    /// retry budget and surface as `TrainError::Diverged`.
    pub persistent: bool,
}

impl TrainingFaults {
    /// Is any training fault actually enabled?
    pub fn is_active(&self) -> bool {
        !self.nonfinite_steps.is_empty() || !self.ckpt_fail_steps.is_empty()
    }
}

/// Layer 3: faults applied to checkpoint artifacts at rest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StorageFaults {
    /// Number of single-bit flips applied at seeded positions within the
    /// payload region of the artifact file.
    pub bit_flips: u32,
    /// Bytes chopped off the end of the file (0 = no truncation).
    pub truncate_bytes: u64,
}

impl StorageFaults {
    /// Is any storage fault actually enabled?
    pub fn is_active(&self) -> bool {
        self.bit_flips > 0 || self.truncate_bytes > 0
    }
}

/// The degradation-sweep grid: the cartesian product of these two axes is
/// evaluated by [`crate::report::degradation_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Dropout fractions to sweep.
    pub dropouts: Vec<f64>,
    /// Noise sigmas (m/s) to sweep.
    pub noise_stds: Vec<f64>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self {
            dropouts: vec![0.0, 0.1, 0.3],
            noise_stds: vec![0.0],
        }
    }
}

/// A complete, seeded fault scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed: every injected fault derives from per-index streams
    /// of this value, so the whole scenario replays bit-exactly.
    pub seed: u64,
    /// Observation-layer faults.
    pub observation: ObservationFaults,
    /// Training-layer faults.
    pub training: TrainingFaults,
    /// Storage-layer faults.
    pub storage: StorageFaults,
    /// Network-layer faults: the declarative incident timeline and the
    /// incident-sweep template.
    pub network: NetworkFaults,
    /// Degradation-sweep axes.
    pub sweep: SweepGrid,
}

/// A plan-file parse or validation failure, with a line number (and a
/// column when the failure points at a specific token) when the failure
/// is tied to one.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line of the offending statement, if known.
    pub line: Option<usize>,
    /// 1-based column of the offending token within that line, if known.
    pub column: Option<usize>,
}

impl PlanError {
    pub(crate) fn new(message: String) -> Self {
        Self {
            message,
            line: None,
            column: None,
        }
    }

    pub(crate) fn at(line: usize, message: String) -> Self {
        Self {
            message,
            line: Some(line),
            column: None,
        }
    }

    /// Attaches a column span if one is not already present.
    fn spanned(mut self, column: Option<usize>) -> Self {
        if self.column.is_none() {
            self.column = column;
        }
        self
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (Some(n), Some(c)) => write!(f, "fault plan line {n}, col {c}: {}", self.message),
            (Some(n), None) => write!(f, "fault plan line {n}: {}", self.message),
            _ => write!(f, "fault plan: {}", self.message),
        }
    }
}

impl std::error::Error for PlanError {}

/// At most this many characters of offending input are quoted in an
/// error message, so a megabyte line cannot become a megabyte message.
const QUOTED_CHARS: usize = 64;

/// Displays at most [`QUOTED_CHARS`] characters of the wrapped text,
/// with `...` when it was cut.
struct Clip<'a>(&'a str);

impl fmt::Display for Clip<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.char_indices().nth(QUOTED_CHARS) {
            Some((cut, _)) => write!(f, "{}...", &self.0[..cut]),
            None => f.write_str(self.0),
        }
    }
}

/// One parsed right-hand side of the TOML subset.
enum Value {
    Num(f64),
    Bool(bool),
    Str(String),
    Array(Vec<f64>),
}

impl Value {
    fn parse(raw: &str, line: usize) -> Result<Self, PlanError> {
        let raw = raw.trim();
        if raw == "true" {
            return Ok(Self::Bool(true));
        }
        if raw == "false" {
            return Ok(Self::Bool(false));
        }
        if let Some(inner) = raw.strip_prefix('[') {
            let Some(inner) = inner.strip_suffix(']') else {
                return Err(PlanError::at(
                    line,
                    format!("unterminated array '{}'", Clip(raw)),
                ));
            };
            // Counted first so the array is allocated once, at its size.
            let items = || inner.split(',').map(str::trim).filter(|i| !i.is_empty());
            let mut out = Vec::with_capacity(items().count());
            for item in items() {
                out.push(item.parse::<f64>().map_err(|_| {
                    PlanError::at(
                        line,
                        format!("array element '{}' is not a number", Clip(item)),
                    )
                })?);
            }
            return Ok(Self::Array(out));
        }
        if let Some(inner) = raw.strip_prefix('"') {
            let Some(inner) = inner.strip_suffix('"') else {
                return Err(PlanError::at(
                    line,
                    format!("unterminated string {}", Clip(raw)),
                ));
            };
            return Ok(Self::Str(inner.to_string()));
        }
        raw.parse::<f64>()
            .map(Self::Num)
            .map_err(|_| PlanError::at(line, format!("cannot parse value '{}'", Clip(raw))))
    }

    fn num(&self, key: &str, line: usize) -> Result<f64, PlanError> {
        match self {
            Self::Num(v) => Ok(*v),
            _ => Err(PlanError::at(line, format!("{key} expects a number"))),
        }
    }

    fn uint(&self, key: &str, line: usize) -> Result<u64, PlanError> {
        let v = self.num(key, line)?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(PlanError::at(
                line,
                format!("{key} expects a non-negative integer, got {v}"),
            ));
        }
        Ok(v as u64)
    }

    fn boolean(&self, key: &str, line: usize) -> Result<bool, PlanError> {
        match self {
            Self::Bool(b) => Ok(*b),
            _ => Err(PlanError::at(line, format!("{key} expects true/false"))),
        }
    }

    fn string(&self, key: &str, line: usize) -> Result<&str, PlanError> {
        match self {
            Self::Str(s) => Ok(s),
            _ => Err(PlanError::at(line, format!("{key} expects a string"))),
        }
    }

    fn array(self, key: &str, line: usize) -> Result<Vec<f64>, PlanError> {
        match self {
            Self::Array(v) => Ok(v),
            _ => Err(PlanError::at(line, format!("{key} expects an array"))),
        }
    }

    /// An array of positive integer tick counts, order preserved.
    fn tick_list(self, key: &str, line: usize) -> Result<Vec<u64>, PlanError> {
        let items = self.array(key, line)?;
        if let Some(v) = items.iter().find(|v| **v < 1.0 || v.fract() != 0.0) {
            return Err(PlanError::at(
                line,
                format!("{key} expects positive integer tick counts, got {v}"),
            ));
        }
        // Same-size elements: the conversion reuses the array's buffer.
        Ok(items.into_iter().map(|v| v as u64).collect())
    }

    /// An array of non-negative integer steps, sorted and deduplicated.
    fn step_list(self, key: &str, line: usize) -> Result<Vec<usize>, PlanError> {
        let items = self.array(key, line)?;
        if let Some(v) = items.iter().find(|v| **v < 0.0 || v.fract() != 0.0) {
            return Err(PlanError::at(
                line,
                format!("{key} expects non-negative integer steps, got {v}"),
            ));
        }
        let mut out: Vec<usize> = items.into_iter().map(|v| v as usize).collect();
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

impl FaultPlan {
    /// Parses the TOML-subset plan grammar. Unknown sections and keys are
    /// rejected so a typo cannot silently disable a fault.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let mut plan = Self::default();
        let mut section = "";
        // The open [[network.incident]] section, and the first error a
        // closed one raised: that error is reported only once every line
        // has parsed, so a bad line anywhere takes precedence over it.
        let mut draft: Option<IncidentDraft> = None;
        let mut incident_error: Option<PlanError> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            // A '#' inside a quoted string would be cut too; plan
            // strings (`training.stage`, `network.kind`) never contain one.
            let line = raw_line.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            // Array-of-tables: each [[network.incident]] opens a fresh
            // incident whose keys follow until the next section header.
            if let Some(name) = line.strip_prefix("[[") {
                let Some(name) = name.strip_suffix("]]") else {
                    return Err(PlanError::at(
                        line_no,
                        format!("malformed array section '{}'", Clip(line)),
                    ));
                };
                let name = name.trim();
                if name != "network.incident" {
                    return Err(PlanError::at(
                        line_no,
                        format!("unknown array section [[{}]]", Clip(name)),
                    )
                    .spanned(column_of(raw_line, name)));
                }
                plan.close_incident(
                    draft.replace(IncidentDraft::new(line_no)),
                    &mut incident_error,
                );
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return Err(PlanError::at(
                        line_no,
                        format!("malformed section '{}'", Clip(line)),
                    ));
                };
                let name = name.trim();
                match name {
                    "observation" | "training" | "storage" | "sweep" | "network" => {
                        section = name;
                    }
                    other => {
                        return Err(PlanError::at(
                            line_no,
                            format!("unknown section [{}]", Clip(other)),
                        )
                        .spanned(column_of(raw_line, other)));
                    }
                }
                plan.close_incident(draft.take(), &mut incident_error);
                continue;
            }
            let Some((key, raw_value)) = line.split_once('=') else {
                return Err(PlanError::at(
                    line_no,
                    format!("expected 'key = value', got '{}'", Clip(line)),
                ));
            };
            let key = key.trim();
            let value = Value::parse(raw_value, line_no)?;
            let applied = match draft.as_mut() {
                Some(draft) => draft.apply(key, value, line_no),
                None => plan.apply(section, key, value, line_no),
            };
            applied.map_err(|e| e.spanned(column_of(raw_line, key)))?;
        }
        plan.close_incident(draft, &mut incident_error);
        if let Some(e) = incident_error {
            return Err(e);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Reads and parses a plan file.
    pub fn from_file(path: &Path) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PlanError::new(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Closes an incident section: its spec joins the timeline, or its
    /// error is kept if no earlier section failed.
    fn close_incident(
        &mut self,
        draft: Option<IncidentDraft>,
        first_error: &mut Option<PlanError>,
    ) {
        if let (Some(draft), None) = (draft, &first_error) {
            match draft.finish() {
                Ok(spec) => self.network.incidents.push(spec),
                Err(e) => *first_error = Some(e),
            }
        }
    }

    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: Value,
        line: usize,
    ) -> Result<(), PlanError> {
        match (section, key) {
            ("", "seed") => self.seed = value.uint("seed", line)?,
            ("observation", "dropout") => self.observation.dropout = value.num(key, line)?,
            ("observation", "noise_std") => self.observation.noise_std = value.num(key, line)?,
            ("observation", "stuck") => self.observation.stuck = value.num(key, line)?,
            ("observation", "nonfinite") => self.observation.nonfinite = value.num(key, line)?,
            ("training", "stage") => {
                self.training.stage = Some(StageSel::parse(value.string(key, line)?)?);
            }
            ("training", "nonfinite_steps") => {
                self.training.nonfinite_steps = value.step_list(key, line)?;
            }
            ("training", "ckpt_fail_steps") => {
                self.training.ckpt_fail_steps = value.step_list(key, line)?;
            }
            ("training", "persistent") => self.training.persistent = value.boolean(key, line)?,
            ("storage", "bit_flips") => {
                self.storage.bit_flips = value.uint(key, line)?.min(u32::MAX as u64) as u32;
            }
            ("storage", "truncate_bytes") => {
                self.storage.truncate_bytes = value.uint(key, line)?;
            }
            ("sweep", "dropouts") => self.sweep.dropouts = value.array(key, line)?,
            ("sweep", "noise_stds") => self.sweep.noise_stds = value.array(key, line)?,
            ("network", "kind") => {
                self.network.sweep.kind = parse_kind(value.string(key, line)?, line)?;
            }
            ("network", "target_link") => {
                self.network.sweep.target_link = value.uint(key, line)?;
            }
            ("network", "onset_tick") => {
                self.network.sweep.onset_tick = value.uint(key, line)?;
            }
            ("network", "sweep_severities") => {
                self.network.sweep.severities = value.array(key, line)?;
            }
            ("network", "sweep_durations") => {
                self.network.sweep.duration_ticks = value.tick_list(key, line)?;
            }
            _ => {
                let place = if section.is_empty() {
                    "top level".to_string()
                } else {
                    format!("section [{section}]")
                };
                return Err(PlanError::at(
                    line,
                    format!("unknown key '{}' in {place}", Clip(key)),
                ));
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), PlanError> {
        self.observation.validate()?;
        for &d in &self.sweep.dropouts {
            if !(0.0..=1.0).contains(&d) {
                return Err(PlanError::new(format!(
                    "sweep.dropouts entry {d} is not a probability in [0, 1]"
                )));
            }
        }
        for &n in &self.sweep.noise_stds {
            if !n.is_finite() || n < 0.0 {
                return Err(PlanError::new(format!(
                    "sweep.noise_stds entry {n} must be finite and >= 0"
                )));
            }
        }
        if self.sweep.dropouts.is_empty() || self.sweep.noise_stds.is_empty() {
            return Err(PlanError::new(
                "sweep axes must be non-empty (use [0.0] to pin an axis)".to_string(),
            ));
        }
        self.network.validate()?;
        Ok(())
    }
}

fn parse_kind(s: &str, line: usize) -> Result<IncidentKind, PlanError> {
    IncidentKind::parse(s).ok_or_else(|| {
        PlanError::at(
            line,
            format!(
                "unknown incident kind '{}' (expected closure|capacity_drop|signal_outage)",
                Clip(s)
            ),
        )
    })
}

/// 1-based column of `token` within `raw_line`, for spanned errors.
fn column_of(raw_line: &str, token: &str) -> Option<usize> {
    raw_line.find(token).map(|i| i + 1)
}

/// Accumulates one `[[network.incident]]` section during parsing; the
/// required-field checks run in [`IncidentDraft::finish`] once the section
/// is complete.
struct IncidentDraft {
    line: usize,
    kind: Option<IncidentKind>,
    link: Option<u64>,
    node: Option<u64>,
    onset_tick: u64,
    duration_ticks: Option<u64>,
    severity: Option<f64>,
}

impl IncidentDraft {
    fn new(line: usize) -> Self {
        Self {
            line,
            kind: None,
            link: None,
            node: None,
            onset_tick: 0,
            duration_ticks: None,
            severity: None,
        }
    }

    fn apply(&mut self, key: &str, value: Value, line: usize) -> Result<(), PlanError> {
        match key {
            "kind" => self.kind = Some(parse_kind(value.string(key, line)?, line)?),
            "link" => self.link = Some(value.uint(key, line)?),
            "node" => self.node = Some(value.uint(key, line)?),
            "onset_tick" => self.onset_tick = value.uint(key, line)?,
            "duration_ticks" => self.duration_ticks = Some(value.uint(key, line)?),
            "severity" => self.severity = Some(value.num(key, line)?),
            other => {
                return Err(PlanError::at(
                    line,
                    format!("unknown key '{}' in [[network.incident]]", Clip(other)),
                ));
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<IncidentSpec, PlanError> {
        let Some(kind) = self.kind else {
            return Err(PlanError::at(
                self.line,
                "[[network.incident]] requires an explicit kind".to_string(),
            ));
        };
        let Some(duration_ticks) = self.duration_ticks else {
            return Err(PlanError::at(
                self.line,
                "[[network.incident]] requires duration_ticks".to_string(),
            ));
        };
        let Some(severity) = self.severity else {
            return Err(PlanError::at(
                self.line,
                "[[network.incident]] requires severity".to_string(),
            ));
        };
        let spec = IncidentSpec {
            kind,
            link: self.link,
            node: self.node,
            onset_tick: self.onset_tick,
            duration_ticks,
            severity,
        };
        spec.validate().map_err(|e| PlanError {
            line: e.line.or(Some(self.line)),
            ..e
        })?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# demo plan
seed = 42

[observation]
dropout = 0.3
noise_std = 0.5
stuck = 0.05
nonfinite = 0.01

[training]
stage = "fit"
nonfinite_steps = [12, 3]
ckpt_fail_steps = [20]
persistent = false

[storage]
bit_flips = 3
truncate_bytes = 0

[sweep]
dropouts = [0.0, 0.1, 0.3, 0.5]
noise_stds = [0.0, 0.5]

[network]
kind = "capacity_drop"
target_link = 7
onset_tick = 60
sweep_severities = [0.3, 0.9]
sweep_durations = [30, 120]

[[network.incident]]
kind = "closure"
link = 4
onset_tick = 120
duration_ticks = 240
severity = 1.0

[[network.incident]]
kind = "signal_outage"
node = 2
onset_tick = 30
duration_ticks = 60
severity = 0.8
"#;

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(FULL).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.observation.dropout, 0.3);
        assert_eq!(plan.observation.noise_std, 0.5);
        assert_eq!(plan.training.stage, Some(StageSel::Fit));
        // Step lists are sorted and deduplicated.
        assert_eq!(plan.training.nonfinite_steps, vec![3, 12]);
        assert_eq!(plan.training.ckpt_fail_steps, vec![20]);
        assert!(!plan.training.persistent);
        assert_eq!(plan.storage.bit_flips, 3);
        assert_eq!(plan.sweep.dropouts.len(), 4);
        assert!(plan.observation.is_active());
        assert!(plan.training.is_active());
        assert!(plan.storage.is_active());
        assert!(plan.network.is_active());
        assert_eq!(plan.network.sweep.kind, IncidentKind::CapacityDrop);
        assert_eq!(plan.network.sweep.target_link, 7);
        assert_eq!(plan.network.sweep.severities, vec![0.3, 0.9]);
        assert_eq!(plan.network.sweep.duration_ticks, vec![30, 120]);
        assert_eq!(plan.network.incidents.len(), 2);
        assert_eq!(plan.network.incidents[0].kind, IncidentKind::Closure);
        assert_eq!(plan.network.incidents[0].link, Some(4));
        assert_eq!(plan.network.incidents[1].node, Some(2));
        // The timeline converts into a sorted simulator schedule.
        let sched = plan.network.schedule().unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.incidents()[0].onset_tick, 30);
    }

    #[test]
    fn incident_sections_require_kind_target_duration_severity() {
        let err = FaultPlan::parse(
            "[[network.incident]]\nlink = 1\nduration_ticks = 5\nseverity = 0.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("explicit kind"), "{err}");
        assert_eq!(err.line, Some(1));
        let err = FaultPlan::parse(
            "[[network.incident]]\nkind = \"closure\"\nduration_ticks = 5\nseverity = 0.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("link/node"), "{err}");
        let err = FaultPlan::parse(
            "[[network.incident]]\nkind = \"closure\"\nlink = 1\nnode = 2\nduration_ticks = 5\nseverity = 0.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
        let err = FaultPlan::parse(
            "[[network.incident]]\nkind = \"closure\"\nlink = 1\nseverity = 0.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duration_ticks"), "{err}");
        let err = FaultPlan::parse(
            "[[network.incident]]\nkind = \"closure\"\nlink = 1\nduration_ticks = 5\nseverity = 1.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("(0, 1]"), "{err}");
    }

    #[test]
    fn unknown_incident_keys_and_kinds_are_spanned() {
        let err = FaultPlan::parse("[[network.incident]]\nkind = \"closure\"\n  severety = 0.5\n")
            .unwrap_err();
        assert_eq!(err.line, Some(3));
        // Column points at the typo'd key, past the indentation.
        assert_eq!(err.column, Some(3));
        assert!(err.to_string().contains("col 3"), "{err}");
        let err = FaultPlan::parse("[[network.incident]]\nkind = \"flood\"\n").unwrap_err();
        assert!(err.to_string().contains("unknown incident kind"), "{err}");
        let err = FaultPlan::parse("[[network.accident]]\n").unwrap_err();
        assert!(err.to_string().contains("unknown array section"), "{err}");
        assert_eq!(err.column, Some(3));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::parse("seed = 1\n").unwrap();
        assert!(!plan.observation.is_active());
        assert!(!plan.training.is_active());
        assert!(!plan.storage.is_active());
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_numbers() {
        let err = FaultPlan::parse("seed = 1\n[observation]\ndropuot = 0.3\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.to_string().contains("dropuot"), "{err}");
        let err = FaultPlan::parse("[weather]\nrain = 1.0\n").unwrap_err();
        assert!(err.to_string().contains("unknown section"), "{err}");
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        let err = FaultPlan::parse("[observation]\ndropout = 1.5\n").unwrap_err();
        assert!(err.to_string().contains("probability"), "{err}");
        let err = FaultPlan::parse("[sweep]\ndropouts = []\nnoise_stds = [0.0]\n").unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    fn a_bad_line_outranks_an_incomplete_incident_before_it() {
        let err =
            FaultPlan::parse("[[network.incident]]\nlink = 1\n[sweep]\nbogus = 1\n").unwrap_err();
        assert_eq!(err.line, Some(4));
        assert!(err.to_string().contains("bogus"), "{err}");
        // Without the bad line, the first incomplete incident is reported.
        let err = FaultPlan::parse(
            "[[network.incident]]\nlink = 1\n[[network.incident]]\nseverity = 2\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.to_string().contains("explicit kind"), "{err}");
    }

    #[test]
    fn errors_quote_at_most_64_characters_of_input() {
        let long = "k".repeat(10_000);
        let err = FaultPlan::parse(&format!("{long} = 1\n")).unwrap_err();
        assert!(
            err.message.contains(&format!("'{}...'", &long[..64])),
            "{err}"
        );
        assert!(err.message.len() < 128, "{} bytes", err.message.len());
        let err = FaultPlan::parse("[training]\nstage = \"fiT\"\n").unwrap_err();
        assert!(err.message.contains("'fiT'"), "{err}");
    }

    /// The message of the error `text` must fail with.
    fn error_of(text: &str) -> String {
        FaultPlan::parse(text).unwrap_err().to_string()
    }

    #[test]
    fn blank_array_items_are_skipped() {
        let plan = FaultPlan::parse("[sweep]\ndropouts = [0.1, , 0.2,]\n").unwrap();
        assert_eq!(plan.sweep.dropouts, vec![0.1, 0.2]);
        let plan = FaultPlan::parse("[training]\nnonfinite_steps = []\n").unwrap();
        assert!(plan.training.nonfinite_steps.is_empty());
    }

    #[test]
    fn unterminated_arrays_and_strings_are_rejected() {
        let err = FaultPlan::parse("[sweep]\ndropouts = [0.1, 0.2\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(
            err.message.contains("unterminated array '[0.1, 0.2'"),
            "{err}"
        );
        let err = FaultPlan::parse("[training]\nstage = \"fit\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("unterminated string \"fit"), "{err}");
    }

    #[test]
    fn non_numeric_array_elements_are_quoted() {
        let err = FaultPlan::parse("[sweep]\n\ndropouts = [0.1, zero]\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.message.contains("array element 'zero'"), "{err}");
    }

    #[test]
    fn tick_lists_keep_their_order_and_repeats() {
        let plan = FaultPlan::parse("[network]\nsweep_durations = [120, 30, 30]\n").unwrap();
        assert_eq!(plan.network.sweep.duration_ticks, vec![120, 30, 30]);
    }

    #[test]
    fn tick_lists_reject_zero_and_fractional_ticks() {
        for bad in ["[0]", "[30, 1.5]", "[-2]"] {
            let err = error_of(&format!("[network]\nsweep_durations = {bad}\n"));
            assert!(err.contains("positive integer tick counts"), "{bad}: {err}");
        }
    }

    #[test]
    fn step_lists_reject_negative_and_fractional_steps() {
        for bad in ["[-1]", "[3, 2.5]"] {
            let err = error_of(&format!("[training]\nckpt_fail_steps = {bad}\n"));
            assert!(err.contains("non-negative integer steps"), "{bad}: {err}");
        }
        let plan = FaultPlan::parse("[training]\nckpt_fail_steps = [0, 9, 0, 4, 9]\n").unwrap();
        assert_eq!(plan.training.ckpt_fail_steps, vec![0, 4, 9]);
    }

    #[test]
    fn seed_must_be_a_non_negative_integer() {
        assert_eq!(FaultPlan::parse("seed = 7\n").unwrap().seed, 7);
        for bad in ["-1", "1.5", "1e30"] {
            let err = error_of(&format!("seed = {bad}\n"));
            assert!(
                err.contains("seed expects a non-negative integer"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn values_of_the_wrong_type_name_the_key() {
        for (text, want) in [
            (
                "[observation]\ndropout = \"high\"\n",
                "dropout expects a number",
            ),
            (
                "[training]\npersistent = 1\n",
                "persistent expects true/false",
            ),
            ("[training]\nstage = fit\n", "cannot parse value 'fit'"),
            ("[training]\nstage = 2\n", "stage expects a string"),
            ("[sweep]\ndropouts = 0.5\n", "dropouts expects an array"),
            ("[network]\nkind = [1]\n", "kind expects a string"),
        ] {
            let err = error_of(text);
            assert!(err.contains(want), "{text:?}: {err}");
        }
    }

    #[test]
    fn bit_flips_saturate_at_u32_max() {
        let plan = FaultPlan::parse("[storage]\nbit_flips = 10000000000\n").unwrap();
        assert_eq!(plan.storage.bit_flips, u32::MAX);
        let plan = FaultPlan::parse("[storage]\ntruncate_bytes = 10000000000\n").unwrap();
        assert_eq!(plan.storage.truncate_bytes, 10_000_000_000);
    }

    #[test]
    fn comments_indentation_and_blank_lines_are_ignored() {
        let plan = FaultPlan::parse(
            "# header\n\n   seed = 3   # trailing\n  [observation]  \n\tdropout=0.25\n#[storage]\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.observation.dropout, 0.25);
        assert!(!plan.storage.is_active());
    }

    #[test]
    fn malformed_section_headers_are_rejected() {
        let err = FaultPlan::parse("seed = 1\n[observation\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(
            err.message.contains("malformed section '[observation'"),
            "{err}"
        );
        let err = FaultPlan::parse("[[network.incident]\n").unwrap_err();
        assert!(err.message.contains("malformed array section"), "{err}");
    }

    #[test]
    fn a_section_header_closes_an_open_incident() {
        let plan = FaultPlan::parse(
            "[[network.incident]]\nkind = \"closure\"\nlink = 1\nduration_ticks = 5\nseverity = 1\n\
             [network]\nkind = \"signal_outage\"\n",
        )
        .unwrap();
        assert_eq!(plan.network.incidents.len(), 1);
        assert_eq!(plan.network.incidents[0].kind, IncidentKind::Closure);
        assert_eq!(plan.network.sweep.kind, IncidentKind::SignalOutage);
        // Keys of a closed incident's section are not incident keys any more.
        let err = error_of(
            "[[network.incident]]\nkind = \"closure\"\nlink = 1\nduration_ticks = 5\nseverity = 1\n\
             [sweep]\nlink = 2\n",
        );
        assert!(
            err.contains("unknown key 'link' in section [sweep]"),
            "{err}"
        );
    }

    #[test]
    fn noise_sigmas_must_be_finite_and_non_negative() {
        for bad in ["-0.5", "inf", "nan"] {
            let err = error_of(&format!("[observation]\nnoise_std = {bad}\n"));
            assert!(err.contains("observation.noise_std"), "{bad}: {err}");
            let err = error_of(&format!("[sweep]\nnoise_stds = [0.0, {bad}]\n"));
            assert!(err.contains("sweep.noise_stds entry"), "{bad}: {err}");
        }
    }

    #[test]
    fn sweep_dropouts_must_be_probabilities() {
        let err = error_of("[sweep]\ndropouts = [0.0, 1.2]\n");
        assert!(err.contains("sweep.dropouts entry 1.2"), "{err}");
        let plan = FaultPlan::parse("[sweep]\ndropouts = [0.0, 1.0]\n").unwrap();
        assert_eq!(plan.sweep.dropouts, vec![0.0, 1.0]);
    }

    #[test]
    fn lines_without_an_equals_sign_are_rejected() {
        let err = FaultPlan::parse("seed = 1\nseed 2\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(
            err.message.contains("expected 'key = value', got 'seed 2'"),
            "{err}"
        );
    }

    #[test]
    fn keys_before_any_section_are_top_level() {
        let err = error_of("dropout = 0.3\n");
        assert!(err.contains("unknown key 'dropout' in top level"), "{err}");
    }

    #[test]
    fn quotes_are_cut_on_a_character_boundary() {
        let long = "é".repeat(100);
        let err = FaultPlan::parse(&format!("[training]\nstage = \"{long}\"\n")).unwrap_err();
        assert!(
            err.message.contains(&format!("'{}...'", "é".repeat(64))),
            "{err}"
        );
        assert!(!err.message.contains(&"é".repeat(65)), "{err}");
        // Exactly 64 characters are quoted whole, without an ellipsis.
        let exact = "é".repeat(64);
        let err = FaultPlan::parse(&format!("[training]\nstage = \"{exact}\"\n")).unwrap_err();
        assert!(err.message.contains(&format!("'{exact}'")), "{err}");
    }

    #[test]
    fn errors_display_their_line_and_column() {
        let mut err = PlanError::new("bad".to_string());
        assert_eq!(err.to_string(), "fault plan: bad");
        err.line = Some(4);
        assert_eq!(err.to_string(), "fault plan line 4: bad");
        let err = err.spanned(Some(7)).spanned(Some(9));
        assert_eq!(err.to_string(), "fault plan line 4, col 7: bad");
    }

    #[test]
    fn unreadable_plan_files_are_reported() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-plan.toml");
        let err = FaultPlan::from_file(&path).unwrap_err();
        assert!(err.message.starts_with("cannot read"), "{err}");
        assert!(err.message.contains("no-such-plan.toml"), "{err}");
        assert_eq!(err.line, None);
    }

    #[test]
    fn stage_selector_matches_trainer_stages() {
        assert!(StageSel::Any.matches(ovs_core::Stage::V2s));
        assert!(StageSel::Fit.matches(ovs_core::Stage::Fit));
        assert!(!StageSel::Fit.matches(ovs_core::Stage::V2s));
        assert!(StageSel::parse("bogus").is_err());
    }
}
