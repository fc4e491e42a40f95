//! JSON ⇄ spec conversion with typed errors, derived from one field walk
//! per spec type.
//!
//! Every spec type implements [`Spec`]: one `fields` walk that names each
//! field once with its JSON key and its [`Rule`]; the variant it starts
//! from comes from the type's [`Variants`] table (names and defaults, in
//! `spec.rs`). Three [`Fields`] walkers run the walk, so the paths that must
//! agree cannot drift apart: **parse** reads the present keys (absent ones
//! keep their defaults; left-over keys are unknown fields), **emit**
//! writes canonical JSON (every field explicit, in walk order; a variant
//! without fields as its bare type string), and **check** re-applies every
//! rule to a typed spec — what `ScenarioSpec::build` runs, so a spec built
//! in code fails with the error its JSON spelling gets.
//!
//! Omissions take defaults and any variant may be a bare type string;
//! mistakes are typed errors: unknown names list the valid ones, unknown
//! fields are typo-guarded, and every value the runtime would assert on is
//! range-checked, so a spec that parses also builds and runs.

use tokenflow_core::BLOCK_TOKENS;
use tokenflow_fault::{CrashFault, FaultPlan, RetryPolicy, WindowFault};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{ArrivalSpec, RateDist};

use crate::json::{self, Json, JsonError};
use crate::spec::*;
use Rule::*;

/// A spec-level failure: where in the document, and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document was not JSON at all.
    Json(JsonError),
    /// A name (policy, preset, profile, …) did not match any shipped one.
    UnknownName {
        /// Dotted path of the offending field, e.g. `"scheduler.type"`.
        field: String,
        /// What the document said.
        got: String,
        /// Every valid name for this field.
        valid: Vec<String>,
    },
    /// An object carried a field the spec does not define (typo guard).
    UnknownField {
        /// Dotted path of the unknown field.
        field: String,
        /// Fields the object does define.
        valid: Vec<String>,
    },
    /// A field was present but malformed (wrong type, bad value).
    Invalid {
        /// Dotted path of the offending field.
        field: String,
        /// What was wrong.
        msg: String,
    },
    /// The spec was well-formed but unbuildable (e.g. unreadable trace).
    Build {
        /// What failed.
        msg: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::UnknownName { field, got, valid } => write!(
                f,
                "unknown {field} \"{got}\"; valid names: {}",
                valid.join(", ")
            ),
            SpecError::UnknownField { field, valid } => write!(
                f,
                "unknown field {field}; this object accepts: {}",
                valid.join(", ")
            ),
            SpecError::Invalid { field, msg } => write!(f, "invalid {field}: {msg}"),
            SpecError::Build { msg } => write!(f, "cannot build scenario: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

/// A field's dotted path, rendered only when an error names it.
pub type At<'a> = &'a dyn Fn() -> String;

/// The outcome of walking a field (or a whole spec): `Ok`, or the first
/// rule it breaks.
pub type Walk = Result<(), SpecError>;

pub(crate) fn unknown_name(field: String, got: &str, valid: &[&str]) -> SpecError {
    SpecError::UnknownName {
        field,
        got: got.to_string(),
        valid: valid.iter().map(|v| v.to_string()).collect(),
    }
}

fn invalid(at: At, msg: &str) -> SpecError {
    SpecError::Invalid {
        field: at(),
        msg: msg.to_string(),
    }
}

/// The range rule of one field. Numeric rules bound the value (integers
/// included); `Name` restricts a string to a name table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Any value of the field's type.
    Any,
    /// At least zero (times, delays: `SimTime` rejects negatives).
    NonNeg,
    /// Strictly positive (rates and intervals the runtime asserts on).
    Pos,
    /// At least one (counts of replicas, threads, tokens).
    AtLeast1,
    /// In `(0, 1]` (fractions and throughput factors).
    Unit,
    /// Fits the engine's 32-bit fields (batch caps, burst sizes).
    U32,
    /// A duration written in whole milliseconds (at most `u32::MAX`);
    /// every other time field is written in seconds.
    Millis,
    /// One of these names, matched case-insensitively and stored in its
    /// canonical spelling.
    Name(&'static [&'static str]),
}

impl Rule {
    /// Applies the rule to a number (integers included).
    fn check(self, x: f64, at: At) -> Walk {
        let u32_max = f64::from(u32::MAX);
        let (ok, msg) = match self {
            Rule::Any | Rule::Name(_) => (true, ""),
            Rule::NonNeg => (x >= 0.0, "must be non-negative"),
            Rule::Pos => (x > 0.0, "must be positive"),
            Rule::AtLeast1 => (x >= 1.0, "must be ≥ 1"),
            Rule::Unit => (x > 0.0 && x <= 1.0, "must be in (0, 1]"),
            Rule::U32 => (x <= u32_max, "must fit in 32 bits (≤ 4294967295)"),
            Rule::Millis => (x <= u32_max, "interval too large (at most 4294967295 ms)"),
        };
        if ok {
            Ok(())
        } else {
            Err(invalid(at, msg))
        }
    }
}

/// How one field's value reads from JSON, writes to it, and is
/// re-checked against its rule.
pub trait Value: Sized {
    /// Reads a value the document spells out and applies `rule`.
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError>;
    /// The value's canonical JSON under the field's `rule` (which picks
    /// the unit a time is written in).
    fn emit(&self, rule: Rule) -> Json;
    /// Re-applies `rule` to a typed value (by default, by parsing its
    /// emission).
    fn check(&self, rule: Rule, at: At) -> Walk {
        Self::parse(&self.emit(rule), rule, at).map(drop)
    }
}

impl Value for f64 {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        match j.as_f64() {
            Some(x) if x.is_finite() => rule.check(x, at).map(|()| x),
            _ => Err(invalid(at, "expected a finite number")),
        }
    }

    fn emit(&self, _: Rule) -> Json {
        Json::Num(*self)
    }
}

impl Value for u64 {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let x = j
            .as_u64()
            .ok_or_else(|| invalid(at, "expected a non-negative integer"))?;
        rule.check(x as f64, at).map(|()| x)
    }

    fn emit(&self, _: Rule) -> Json {
        json::ni(*self)
    }
}

/// Always within 32 bits, whatever the field's rule.
impl Value for u32 {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let x = u64::parse(j, rule, at)?;
        U32.check(x as f64, at).map(|()| x as u32)
    }

    fn emit(&self, _: Rule) -> Json {
        json::ni(u64::from(*self))
    }
}

impl Value for usize {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let x = u64::parse(j, rule, at)?;
        usize::try_from(x).map_err(|_| invalid(at, "too large for this platform"))
    }

    fn emit(&self, _: Rule) -> Json {
        json::ni(*self as u64)
    }
}

/// The longest time a seconds field takes: below it, writing microseconds
/// as `f64` seconds and reading them back is exact.
const MAX_SECS: f64 = 1e9;

/// Parsed once into whole microseconds: whole milliseconds under
/// [`Rule::Millis`], seconds rounded to the microsecond under any other
/// rule, which then applies to the rounded value too (a positive
/// duration must not round to zero). Emission writes the microseconds
/// back in the same unit, exactly.
impl Value for SimDuration {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        if rule == Millis {
            return u64::parse(j, rule, at).map(SimDuration::from_millis);
        }
        let secs = f64::parse(j, rule, at)?;
        NonNeg.check(secs, at)?;
        if secs > MAX_SECS {
            return Err(invalid(at, "too large (at most 1000000000 s)"));
        }
        let d = SimDuration::from_secs_f64(secs);
        rule.check(d.as_secs_f64(), at).map(|()| d)
    }

    fn emit(&self, rule: Rule) -> Json {
        match rule {
            Millis => json::ni(self.as_micros() / 1_000),
            _ => Json::Num(self.as_secs_f64()),
        }
    }

    fn check(&self, rule: Rule, at: At) -> Walk {
        if rule == Millis && !self.as_micros().is_multiple_of(1_000) {
            return Err(invalid(at, "must be a whole number of milliseconds"));
        }
        Self::parse(&self.emit(rule), rule, at).map(drop)
    }
}

/// An instant: the duration since time zero.
impl Value for SimTime {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        SimDuration::parse(j, rule, at).map(|d| SimTime::ZERO + d)
    }

    fn emit(&self, rule: Rule) -> Json {
        self.saturating_since(SimTime::ZERO).emit(rule)
    }
}

impl Value for bool {
    fn parse(j: &Json, _: Rule, at: At) -> Result<Self, SpecError> {
        j.as_bool()
            .ok_or_else(|| invalid(at, "expected true or false"))
    }

    fn emit(&self, _: Rule) -> Json {
        Json::Bool(*self)
    }
}

impl Value for String {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let s = j.as_str().ok_or_else(|| invalid(at, "expected a string"))?;
        match rule {
            Rule::Name(names) => names
                .iter()
                .find(|n| n.eq_ignore_ascii_case(s))
                .map(|n| n.to_string())
                .ok_or_else(|| unknown_name(at(), s, names)),
            _ => Ok(s.to_string()),
        }
    }

    fn emit(&self, _: Rule) -> Json {
        json::s(self)
    }
}

/// A raw JSON member, passed through for the caller to interpret.
impl Value for Json {
    fn parse(j: &Json, _: Rule, _: At) -> Result<Self, SpecError> {
        Ok(j.clone())
    }

    fn emit(&self, _: Rule) -> Json {
        self.clone()
    }
}

/// `null` (or an absent key) is `None`; the rule applies to the value.
impl<V: Value> Value for Option<V> {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        match j {
            Json::Null => Ok(None),
            j => V::parse(j, rule, at).map(Some),
        }
    }

    fn emit(&self, rule: Rule) -> Json {
        self.as_ref().map_or(Json::Null, |v| v.emit(rule))
    }

    fn check(&self, rule: Rule, at: At) -> Walk {
        self.as_ref().map_or(Ok(()), |v| v.check(rule, at))
    }
}

/// An array; the rule applies to every element.
impl<V: Value> Value for Vec<V> {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let items = j.as_arr().ok_or_else(|| invalid(at, "expected an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, j)| V::parse(j, rule, &|| format!("{}[{i}]", at())))
            .collect()
    }

    fn emit(&self, rule: Rule) -> Json {
        Json::Arr(self.iter().map(|v| v.emit(rule)).collect())
    }

    fn check(&self, rule: Rule, at: At) -> Walk {
        self.iter()
            .enumerate()
            .try_for_each(|(i, v)| v.check(rule, &|| format!("{}[{i}]", at())))
    }
}

/// A two-element array; the rule applies to both elements.
impl<A: Value, B: Value> Value for (A, B) {
    fn parse(j: &Json, rule: Rule, at: At) -> Result<Self, SpecError> {
        let Some([a, b]) = j.as_arr() else {
            return Err(invalid(at, "expected a two-element array"));
        };
        Ok((
            A::parse(a, rule, &|| format!("{}[0]", at()))?,
            B::parse(b, rule, &|| format!("{}[1]", at()))?,
        ))
    }

    fn emit(&self, rule: Rule) -> Json {
        Json::Arr(vec![self.0.emit(rule), self.1.emit(rule)])
    }
}

/// One walker over a spec's fields: parse, emit and check implement it.
pub trait Fields {
    /// Visits one field: `key` in the document, `value` in the spec.
    fn field<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk;

    /// Visits a field that has no default: the document must spell it.
    fn required<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk {
        self.field(key, value, rule)
    }

    /// Applies a rule across fields, given the object's path. Emission
    /// skips it.
    fn rule(&mut self, check: impl FnOnce(At) -> Walk) -> Walk;

    /// A default that depends on other fields: parsing sets it when the
    /// document omits `key`.
    fn derive<T>(&mut self, _key: &str, _value: &mut T, _default: T) {}

    /// A cross-field rule: fails at `key` with `msg` unless `ok`.
    fn ensure(&mut self, key: &str, ok: bool, msg: &str) -> Walk {
        self.rule(|at| {
            if ok {
                Ok(())
            } else {
                Err(invalid(&|| format!("{}.{key}", at()), msg))
            }
        })
    }
}

/// The parse walker: reads one JSON object into a spec.
struct Parse<'a> {
    obj: &'a [(String, Json)],
    at: At<'a>,
    /// Document keys consumed so far (the `type` tag included).
    matched: usize,
}

impl<'a> Parse<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Fields for Parse<'_> {
    fn field<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk {
        if let Some(j) = self.get(key) {
            self.matched += 1;
            *value = V::parse(j, rule, &|| format!("{}.{key}", (self.at)()))?;
        }
        Ok(())
    }

    fn required<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk {
        if self.get(key).is_none() {
            return Err(invalid(&|| format!("{}.{key}", (self.at)()), "required"));
        }
        self.field(key, value, rule)
    }

    fn rule(&mut self, check: impl FnOnce(At) -> Walk) -> Walk {
        check(self.at)
    }

    fn derive<T>(&mut self, key: &str, value: &mut T, default: T) {
        if self.get(key).is_none() {
            *value = default;
        }
    }
}

/// The emit walker: collects `(key, canonical value)` members.
struct Emit(Vec<(String, Json)>);

impl Fields for Emit {
    fn field<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk {
        self.0.push((key.to_string(), value.emit(rule)));
        Ok(())
    }

    fn rule(&mut self, _: impl FnOnce(At) -> Walk) -> Walk {
        Ok(())
    }
}

/// The check walker: re-applies every rule to a typed spec.
struct Check<'a>(At<'a>);

impl Fields for Check<'_> {
    fn field<V: Value>(&mut self, key: &str, value: &mut V, rule: Rule) -> Walk {
        value.check(rule, &|| format!("{}.{key}", (self.0)()))
    }

    fn rule(&mut self, check: impl FnOnce(At) -> Walk) -> Walk {
        check(self.0)
    }
}

/// A spec type's field walk, which parse, emit and check all run; the
/// variants it dispatches on come from its [`Variants`] table.
pub trait Spec: Variants {
    /// Whether an untagged single-key object `{"<name>": {…}}` stands for
    /// `{"type": "<name>", …}`.
    const NESTED: bool = false;

    /// Walks every field once, in canonical order. A spec without
    /// fields keeps this.
    fn fields<F: Fields>(&mut self, _f: &mut F) -> Walk {
        Ok(())
    }
}

impl<T: Spec> Value for T {
    fn parse(j: &Json, _: Rule, at: At) -> Result<Self, SpecError> {
        let (name, obj, tagged) = match j {
            _ if T::NAMES.is_empty() => {
                let obj = j
                    .as_obj()
                    .ok_or_else(|| invalid(at, "expected an object"))?;
                ("", obj, false)
            }
            Json::Str(name) => (name.as_str(), [].as_slice(), false),
            Json::Obj(obj) => match j.get("type") {
                Some(Json::Str(name)) => (name.as_str(), obj.as_slice(), true),
                None if T::NESTED => return parse_nested(obj, at),
                _ => return Err(invalid(&|| format!("{}.type", at()), "expected a string")),
            },
            _ => return Err(invalid(at, "expected a string or a {\"type\": …} object")),
        };
        let spec = T::variant(name)
            .ok_or_else(|| unknown_name(format!("{}.type", at()), name, T::NAMES))?;
        parse_object(spec, obj, tagged, at)
    }

    fn emit(&self, _: Rule) -> Json {
        let mut members = Emit(Vec::new());
        // The emit walker never fails.
        let _ = self.clone().fields(&mut members);
        match self.type_name() {
            "" => Json::Obj(members.0),
            name if members.0.is_empty() => json::s(name),
            name => {
                members.0.insert(0, ("type".to_string(), json::s(name)));
                Json::Obj(members.0)
            }
        }
    }

    fn check(&self, _: Rule, at: At) -> Walk {
        self.clone().fields(&mut Check(at))
    }
}

/// Runs the parse walk over `obj`, then the unknown-field guard.
fn parse_object<T: Spec>(
    mut spec: T,
    obj: &[(String, Json)],
    tagged: bool,
    at: At,
) -> Result<T, SpecError> {
    let mut walk = Parse {
        obj,
        at,
        matched: usize::from(tagged),
    };
    spec.fields(&mut walk)?;
    if walk.matched < obj.len() {
        // The emit walker lists every key the walk accepts.
        let mut keys = Emit(Vec::new());
        let _ = spec.fields(&mut keys);
        let valid: Vec<String> = tagged
            .then(|| "type".to_string())
            .into_iter()
            .chain(keys.0.into_iter().map(|(k, _)| k))
            .collect();
        if let Some((k, _)) = obj.iter().find(|(k, _)| !valid.contains(k)) {
            return Err(SpecError::UnknownField {
                field: format!("{}.{k}", at()),
                valid,
            });
        }
    }
    Ok(spec)
}

/// The nested shorthand `{"<name>": {fields…}}` of a [`Spec::NESTED`] enum.
fn parse_nested<T: Spec>(obj: &[(String, Json)], at: At) -> Result<T, SpecError> {
    let [(name, body)] = obj else {
        return Err(invalid(
            at,
            "expected a single-key {\"<name>\": {…}} object",
        ));
    };
    let spec = T::variant(name).ok_or_else(|| unknown_name(at(), name, T::NAMES))?;
    let at = || format!("{}.{name}", at());
    let body = body
        .as_obj()
        .ok_or_else(|| invalid(&at, "expected an object"))?;
    parse_object(spec, body, false, &at)
}

/// Parses a value of type `T`; `path` names it in errors.
pub fn from_json<T: Value>(v: &Json, path: &str) -> Result<T, SpecError> {
    T::parse(v, Rule::Any, &|| path.to_string())
}

/// Emits the canonical JSON of a value.
pub fn to_json<T: Value>(value: &T) -> Json {
    value.emit(Rule::Any)
}

/// Re-applies every parse rule to a typed value; `path` names it in
/// errors. What `ScenarioSpec::build` runs before it builds anything.
pub(crate) fn check<T: Value>(value: &T, path: &str) -> Walk {
    value.check(Rule::Any, &|| path.to_string())
}

/// Parses a [`ScenarioSpec`] from JSON text.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, SpecError> {
    from_json(&json::parse(text)?, "scenario")
}

// ---------------------------------------------------------------------
// The field walks, one per spec type
// ---------------------------------------------------------------------

impl Spec for ScenarioSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("name", &mut self.name, Any)?;
        f.field("model", &mut self.model, Name(MODEL_NAMES))?;
        f.field("hardware", &mut self.hardware, Name(HARDWARE_NAMES))?;
        f.field("engine", &mut self.engine, Any)?;
        f.ensure(
            "engine.mem_frac",
            fits(self),
            "leaves no room for one KV block after the model's weights on this hardware",
        )?;
        f.field("scheduler", &mut self.scheduler, Any)?;
        f.field("workload", &mut self.workload, Any)?;
        f.field("topology", &mut self.topology, Any)?;
        f.field("fault", &mut self.fault, Any)?;
        f.rule(|at| check_fault_topology(self, at))
    }
}

/// Cross-field rule: the memory budget `mem_frac` leaves on the hardware
/// after the model's weights holds at least one KV block, the engine's
/// construction assert. Unknown names are left to their own rules.
fn fits(spec: &ScenarioSpec) -> bool {
    let (Some(model), Some(hardware)) = (
        ModelProfile::by_name(&spec.model),
        HardwareProfile::by_name(&spec.hardware),
    ) else {
        return true;
    };
    let config = spec.engine.build_config(model, hardware);
    config.gpu_kv_tokens() >= BLOCK_TOKENS
}

/// Cross-field rule: a fault schedule needs a multi-replica topology,
/// and every replica index it names must lie inside it (`replicas` for a
/// fixed cluster, `control.max_replicas` for an elastic fleet).
fn check_fault_topology(spec: &ScenarioSpec, at: At) -> Walk {
    let Some(fault) = &spec.fault else {
        return Ok(());
    };
    let bound = match &spec.topology {
        TopologySpec::Single => {
            return Err(invalid(
                &|| format!("{}.fault", at()),
                "fault injection needs a cluster or autoscaled topology",
            ));
        }
        TopologySpec::Cluster { replicas, .. } => *replicas,
        TopologySpec::Autoscaled { control, .. } => control.max_replicas,
    };
    let lists: [(&str, &mut dyn Iterator<Item = usize>); 4] = [
        ("crashes", &mut fault.crashes.iter().map(|c| c.replica)),
        (
            "stragglers",
            &mut fault.stragglers.iter().map(|w| w.replica),
        ),
        ("kv_link", &mut fault.kv_link.iter().map(|w| w.replica)),
        ("boot_failures", &mut fault.boot_failures.iter().copied()),
    ];
    for (list, replicas) in lists {
        if let Some((i, replica)) = replicas.enumerate().find(|&(_, r)| r as u64 >= bound) {
            let field = match list {
                "boot_failures" => format!("{}.fault.{list}[{i}]", at()),
                _ => format!("{}.fault.{list}[{i}].replica", at()),
            };
            let msg = format!(
                "replica {replica} is outside the topology (valid replica indices: 0..{bound})"
            );
            return Err(SpecError::Invalid { field, msg });
        }
    }
    Ok(())
}

impl Spec for EngineSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("max_batch", &mut self.max_batch, U32)?;
        f.ensure("max_batch", self.max_batch >= 1, "must be ≥ 1")?;
        f.field("mem_frac", &mut self.mem_frac, Unit)?;
        f.field("offload_enabled", &mut self.offload_enabled, Any)?;
        f.field("write_through", &mut self.write_through, Any)?;
        f.field("load_evict_overlap", &mut self.load_evict_overlap, Any)?;
        f.field("max_prefill_tokens", &mut self.max_prefill_tokens, Any)?;
        f.field("deadline_secs", &mut self.deadline_secs, NonNeg)?;
        f.field("plan_horizon", &mut self.plan_horizon, Any)
    }
}

impl Spec for SchedulerSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            SchedulerSpec::Fcfs { headroom } => f.field("headroom", headroom, Any),
            SchedulerSpec::Chunked { chunk } => f.field("chunk", chunk, Pos),
            SchedulerSpec::Andes { interval_ms } => f.field("interval_ms", interval_ms, Millis),
            SchedulerSpec::TokenFlow(t) => {
                f.field("schedule_interval_ms", &mut t.schedule_interval, Millis)?;
                f.field(
                    "buffer_conservativeness",
                    &mut t.buffer_conservativeness,
                    NonNeg,
                )?;
                f.field("ws_adjust_rate", &mut t.ws_adjust_rate, Any)?;
                f.field("gamma", &mut t.gamma, Any)?;
                f.field("critical_buffer_secs", &mut t.critical_buffer_secs, Any)?;
                f.field("headroom_tokens", &mut t.headroom_tokens, Any)?;
                f.field("util_target", &mut t.util_target, Any)?;
                f.field("max_transitions", &mut t.max_transitions, Any)?;
                f.field("io_backpressure", &mut t.io_backpressure, Any)?;
                f.field("capacity_safety", &mut t.capacity_safety, Any)?;
                f.field("prefill_chunk", &mut t.prefill_chunk, Any)?;
                f.field("swap_candidates", &mut t.swap_candidates, Any)
            }
        }
    }
}

impl Spec for RouterSpec {}

impl Spec for ScalePolicySpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        let (target_utilization, backlog_per_replica, kv_watermark) = match self {
            ScalePolicySpec::Reactive {
                target_utilization,
                backlog_per_replica,
                kv_watermark,
            } => (target_utilization, backlog_per_replica, kv_watermark),
            ScalePolicySpec::PredictiveEwma {
                tau_secs,
                target_utilization,
                backlog_per_replica,
                kv_watermark,
            } => {
                f.field("tau_secs", tau_secs, Any)?;
                (target_utilization, backlog_per_replica, kv_watermark)
            }
            ScalePolicySpec::Scripted { steps } => return f.required("steps", steps, NonNeg),
        };
        f.field("target_utilization", target_utilization, Any)?;
        f.field("backlog_per_replica", backlog_per_replica, Any)?;
        f.field("kv_watermark", kv_watermark, Any)
    }
}

impl Spec for ControlSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("min_replicas", &mut self.min_replicas, AtLeast1)?;
        f.field("max_replicas", &mut self.max_replicas, Any)?;
        f.ensure(
            "max_replicas",
            self.max_replicas >= self.min_replicas,
            "must be ≥ min_replicas",
        )?;
        f.field("boot_delay_secs", &mut self.boot_delay_secs, NonNeg)?;
        f.field("cooldown_secs", &mut self.cooldown_secs, NonNeg)?;
        f.field("gamma", &mut self.gamma, Pos)?;
        f.field("control_tick_secs", &mut self.control_tick_secs, Pos)
    }
}

impl Spec for ExecutionSpec {
    const NESTED: bool = true;

    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            ExecutionSpec::Parallel(threads) => f.field("threads", threads, AtLeast1),
            ExecutionSpec::Sequential | ExecutionSpec::Auto => Ok(()),
        }
    }
}

impl Spec for TopologySpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            TopologySpec::Single => Ok(()),
            TopologySpec::Cluster {
                replicas,
                router,
                execution,
            } => {
                f.field("replicas", replicas, AtLeast1)?;
                f.field("router", router, Any)?;
                f.field("execution", execution, Any)
            }
            TopologySpec::Autoscaled {
                bootstrap,
                router,
                policy,
                control,
                execution,
            } => {
                f.field("bootstrap", bootstrap, AtLeast1)?;
                f.field("router", router, Any)?;
                f.field("policy", policy, Any)?;
                f.field("control", control, Any)?;
                f.ensure(
                    "bootstrap",
                    (control.min_replicas..=control.max_replicas).contains(bootstrap),
                    "must lie within [control.min_replicas, control.max_replicas]",
                )?;
                f.field("execution", execution, Any)
            }
        }
    }
}

impl Spec for WorkloadSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            WorkloadSpec::Preset { name, seed } => {
                f.required("name", name, Name(PRESET_NAMES))?;
                f.field("seed", seed, Any)
            }
            WorkloadSpec::DiurnalFlashCrowd {
                peak_rate,
                duration_secs,
                crowd_size,
                crowd_at_secs,
                rate,
                seed,
            } => {
                f.field("peak_rate", peak_rate, Pos)?;
                f.field("duration_secs", duration_secs, NonNeg)?;
                f.field("crowd_size", crowd_size, U32)?;
                f.field("crowd_at_secs", crowd_at_secs, NonNeg)?;
                f.field("rate", rate, Any)?;
                f.field("seed", seed, Any)
            }
            WorkloadSpec::Synthetic {
                arrivals,
                prompt,
                output,
                rate,
                seed,
            } => {
                f.required("arrivals", arrivals, Any)?;
                f.field("prompt", prompt, Any)?;
                f.field("output", output, Any)?;
                f.field("rate", rate, Any)?;
                f.field("seed", seed, Any)
            }
            WorkloadSpec::TraceCsv { path } => f.required("path", path, Any),
            WorkloadSpec::Inline { requests } => f.required("requests", requests, Any),
        }
    }
}

impl Spec for InlineRequest {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("arrival_secs", &mut self.arrival_secs, NonNeg)?;
        f.field("prompt_tokens", &mut self.prompt_tokens, Any)?;
        f.field("output_tokens", &mut self.output_tokens, AtLeast1)?;
        f.field("rate", &mut self.rate, Pos)
    }
}

impl Spec for ArrivalSpec {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            ArrivalSpec::Burst { size, at } => {
                f.field("size", size, U32)?;
                f.field("at_secs", at, NonNeg)
            }
            ArrivalSpec::Poisson { rate, duration } => {
                f.field("rate", rate, Pos)?;
                f.field("duration_secs", duration, NonNeg)
            }
            ArrivalSpec::Mmpp {
                base_rate,
                burst_rate,
                mean_calm,
                mean_burst,
                duration,
            } => {
                f.field("base_rate", base_rate, Pos)?;
                f.field("burst_rate", burst_rate, Pos)?;
                f.field("mean_calm_secs", mean_calm, Pos)?;
                f.field("mean_burst_secs", mean_burst, Pos)?;
                f.field("duration_secs", duration, NonNeg)
            }
            ArrivalSpec::Diurnal {
                trough_rate,
                peak_rate,
                period,
                duration,
            } => {
                f.field("trough_rate", trough_rate, NonNeg)?;
                f.field("peak_rate", peak_rate, Pos)?;
                f.ensure(
                    "peak_rate",
                    peak_rate >= trough_rate,
                    "must be ≥ trough_rate",
                )?;
                f.field("period_secs", period, Pos)?;
                f.field("duration_secs", duration, NonNeg)?;
                f.derive("period_secs", period, *duration);
                f.ensure(
                    "period_secs",
                    *period > SimDuration::ZERO,
                    "must be positive",
                )
            }
        }
    }
}

impl Spec for LengthDistSpec {
    /// Sampling floors every length at one token and clamps to
    /// `[max(min, 1), max]`, so the rules reject exactly the bounds that
    /// leave that range empty.
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            LengthDistSpec::Fixed(tokens) => f.field("tokens", tokens, Any),
            LengthDistSpec::Normal {
                mean,
                std,
                min,
                max,
            } => {
                f.field("mean", mean, Any)?;
                f.field("std", std, Any)?;
                f.field("min", min, Any)?;
                f.field("max", max, Any)?;
                f.derive("std", std, *mean / 4.0);
                f.derive("max", max, (*mean * 4.0) as u64);
                f.ensure("max", (*min).max(1) <= *max, "must be ≥ min and ≥ 1")
            }
            LengthDistSpec::LogNormal {
                mean,
                std,
                min,
                max,
            } => {
                f.field("mean", mean, Pos)?;
                f.field("std", std, NonNeg)?;
                f.field("min", min, Any)?;
                f.field("max", max, Any)?;
                f.derive("std", std, *mean);
                f.ensure("max", (*min).max(1) <= *max, "must be ≥ min and ≥ 1")
            }
            LengthDistSpec::Uniform { lo, hi } => {
                f.field("lo", lo, Any)?;
                f.field("hi", hi, Any)?;
                f.ensure("hi", *lo <= (*hi).max(1), "must be ≥ lo")
            }
            LengthDistSpec::SharegptPrompt | LengthDistSpec::SharegptOutput => Ok(()),
        }
    }
}

impl Spec for RateDist {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        match self {
            RateDist::Fixed(rate) => f.field("rate", rate, Pos),
            RateDist::Uniform { lo, hi } => {
                f.field("lo", lo, Pos)?;
                f.field("hi", hi, Pos)?;
                f.ensure("hi", hi >= lo, "must be ≥ lo")
            }
            RateDist::Mix(entries) => {
                f.required("entries", entries, Pos)?;
                f.ensure("entries", !entries.is_empty(), "must be non-empty")
            }
        }
    }
}

impl Spec for FaultPlan {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("crashes", &mut self.crashes, Any)?;
        f.field("stragglers", &mut self.stragglers, Any)?;
        f.field("kv_link", &mut self.kv_link, Any)?;
        f.field("boot_failures", &mut self.boot_failures, Any)?;
        f.field("retry", &mut self.retry, Any)?;
        f.field("shed_utilization", &mut self.shed_utilization, Pos)
    }
}

impl Spec for CrashFault {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.required("replica", &mut self.replica, Any)?;
        f.required("at_secs", &mut self.at, NonNeg)
    }
}

impl Spec for WindowFault {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.required("replica", &mut self.replica, Any)?;
        f.required("from_secs", &mut self.from, NonNeg)?;
        f.required("until_secs", &mut self.until, NonNeg)?;
        f.ensure(
            "until_secs",
            self.until > self.from,
            "must be greater than from_secs",
        )?;
        f.required("factor", &mut self.factor, Unit)
    }
}

impl Spec for RetryPolicy {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("max_attempts", &mut self.max_attempts, U32)?;
        f.field("base_backoff_ms", &mut self.base_backoff, Millis)?;
        f.field("multiplier", &mut self.multiplier, AtLeast1)?;
        f.field("max_backoff_ms", &mut self.max_backoff, Millis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document_takes_defaults() {
        let spec = parse_scenario("{}").unwrap();
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn unknown_scheduler_lists_valid_names() {
        let err = parse_scenario(r#"{"scheduler": {"type": "lottery"}}"#).unwrap_err();
        match err {
            SpecError::UnknownName { field, got, valid } => {
                assert_eq!(field, "scenario.scheduler.type");
                assert_eq!(got, "lottery");
                assert_eq!(valid, SCHEDULER_NAMES.to_vec());
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
    }

    #[test]
    fn unknown_field_is_a_typo_guard() {
        let err = parse_scenario(r#"{"scheduler": {"type": "fcfs", "headrom": 5}}"#).unwrap_err();
        assert!(matches!(err, SpecError::UnknownField { ref field, .. }
            if field == "scenario.scheduler.headrom"));
    }

    #[test]
    fn default_roundtrips_canonically() {
        let spec = ScenarioSpec::default();
        let text = to_json(&spec).emit();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(to_json(&parsed).emit(), text);
    }

    #[test]
    fn fault_replica_outside_cluster_names_the_valid_range() {
        let err = parse_scenario(
            r#"{"topology": {"type": "cluster", "replicas": 2},
                "fault": {"crashes": [{"replica": 5, "at_secs": 10}]}}"#,
        )
        .unwrap_err();
        match err {
            SpecError::Invalid { field, msg } => {
                assert_eq!(field, "scenario.fault.crashes[0].replica");
                assert!(msg.contains("replica 5"), "{msg}");
                assert!(msg.contains("0..2"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn fault_replica_bound_is_max_replicas_for_elastic_fleets() {
        // Inside the ceiling but above the bootstrap size: valid — the
        // fleet can grow to meet it.
        let ok = parse_scenario(
            r#"{"topology": {"type": "autoscaled", "bootstrap": 1,
                            "control": {"max_replicas": 8}},
                "fault": {"stragglers": [{"replica": 6, "from_secs": 1,
                                          "until_secs": 2, "factor": 0.5}]}}"#,
        );
        assert!(ok.is_ok(), "{ok:?}");
        let err = parse_scenario(
            r#"{"topology": {"type": "autoscaled", "bootstrap": 1,
                            "control": {"max_replicas": 8}},
                "fault": {"boot_failures": [8]}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, ref msg }
            if field == "scenario.fault.boot_failures[0]" && msg.contains("0..8")));
    }

    #[test]
    fn fault_on_single_topology_is_rejected() {
        let err = parse_scenario(r#"{"fault": {}}"#).unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, ref msg }
            if field == "scenario.fault"
            && msg.contains("cluster or autoscaled")));
    }

    #[test]
    fn null_fault_means_fault_free() {
        let spec = parse_scenario(r#"{"fault": null}"#).unwrap();
        assert_eq!(spec.fault, None);
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn fault_spec_roundtrips_canonically() {
        let spec = parse_scenario(
            r#"{"topology": {"type": "cluster", "replicas": 3},
                "fault": {"crashes": [{"replica": 2, "at_secs": 35}],
                          "stragglers": [{"replica": 1, "from_secs": 30,
                                          "until_secs": 45, "factor": 0.5}],
                          "shed_utilization": 4.0}}"#,
        )
        .unwrap();
        let fault = spec.fault.as_ref().unwrap();
        assert_eq!(fault.retry, RetryPolicy::default());
        let text = to_json(&spec).emit();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(to_json(&parsed).emit(), text);
    }

    #[test]
    fn window_fault_field_checks() {
        let base = |body: &str| {
            format!(
                r#"{{"topology": {{"type": "cluster", "replicas": 4}},
                    "fault": {{"kv_link": [{body}]}}}}"#
            )
        };
        let err = parse_scenario(&base(
            r#"{"replica": 0, "from_secs": 5, "until_secs": 5, "factor": 0.5}"#,
        ))
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref msg, .. }
            if msg.contains("greater than from_secs")));
        let err = parse_scenario(&base(
            r#"{"replica": 0, "from_secs": 1, "until_secs": 2, "factor": 1.5}"#,
        ))
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref msg, .. }
            if msg.contains("(0, 1]")));
        let err = parse_scenario(&base(r#"{"replica": 0, "from_secs": 1, "until_secs": 2}"#))
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, .. }
            if field.ends_with(".factor")));
    }

    #[test]
    fn model_and_hardware_names_are_case_insensitive() {
        let spec = parse_scenario(r#"{"model": "llama3-8b", "hardware": "h200"}"#).unwrap();
        assert_eq!(spec.model, "Llama3-8B");
        assert_eq!(spec.hardware, "H200");
        let err = parse_scenario(r#"{"hardware": "tpu-v9"}"#).unwrap_err();
        assert!(matches!(err, SpecError::UnknownName { .. }), "{err:?}");
    }

    #[test]
    fn times_parse_once_into_the_microseconds_that_run() {
        let parse = |doc: &str| json::parse(doc).unwrap();
        // Sub-microsecond digits round away, and emission writes back the
        // microsecond that runs.
        let burst: ArrivalSpec =
            from_json(&parse(r#"{"type": "burst", "at_secs": 1.0000004}"#), "a").unwrap();
        assert_eq!(
            burst,
            ArrivalSpec::Burst {
                size: 60,
                at: SimTime::from_secs(1)
            }
        );
        assert_eq!(
            to_json(&burst).emit(),
            r#"{"type":"burst","size":60,"at_secs":1}"#
        );
        // Window bounds that round to one microsecond are an empty window.
        let window = from_json::<WindowFault>(
            &parse(r#"{"replica": 0, "from_secs": 1, "until_secs": 1.0000004, "factor": 0.5}"#),
            "w",
        );
        assert!(matches!(window, Err(SpecError::Invalid { ref field, .. })
            if field == "w.until_secs"));
        // A positive duration must not round to zero.
        let mmpp =
            from_json::<ArrivalSpec>(&parse(r#"{"type": "mmpp", "mean_calm_secs": 1e-7}"#), "a");
        assert!(matches!(mmpp, Err(SpecError::Invalid { ref field, .. })
            if field == "a.mean_calm_secs"));
        // A millisecond field holds whole milliseconds.
        let retry = RetryPolicy {
            base_backoff: SimDuration::from_micros(1_500),
            ..RetryPolicy::default()
        };
        assert!(
            matches!(check(&retry, "r"), Err(SpecError::Invalid { ref field, ref msg })
            if field == "r.base_backoff_ms" && msg.contains("whole number"))
        );
        // Every time `check` accepts survives the JSON hop exactly, up to
        // the largest one it accepts.
        for us in [
            1,
            999_999,
            1_000_001,
            123_456_789_012,
            1_000_000_000_000_000,
        ] {
            let crash = CrashFault {
                replica: 0,
                at: SimTime::from_micros(us),
            };
            assert_eq!(check(&crash, "c"), Ok(()));
            assert_eq!(from_json::<CrashFault>(&to_json(&crash), "c"), Ok(crash));
        }
        let too_late = CrashFault {
            replica: 0,
            at: SimTime::from_micros(1_000_000_000_000_001),
        };
        assert!(check(&too_late, "c").is_err());
    }
}
