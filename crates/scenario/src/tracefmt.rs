//! Rendering decision journals: canonical JSONL, Perfetto (Chrome
//! trace-event) JSON, and causal per-request explanations.
//!
//! The JSONL form is the journal's canonical serialization: one compact
//! JSON object per event, in merge order, written with the same
//! canonical number and string rendering the [`json`](crate::json)
//! emitter uses — so two runs produce byte-identical files exactly when
//! their journals are equal, and the trace digest (FNV-1a over the
//! canonical, meta-filtered lines) is golden-pinnable the same way
//! report digests are.
//!
//! The Perfetto form renders the same journal for `chrome://tracing` /
//! [ui.perfetto.dev](https://ui.perfetto.dev): one process track per
//! replica (plus control-plane and coordinator tracks), one thread lane
//! per request carrying its phase slices, and flow arrows stitching
//! dispatch → arrival and preemption → resumption across lanes.
//!
//! [`explain`] reconstructs one request's causal timeline and attributes
//! every microsecond between arrival and first token (and through to
//! completion) to a wait phase — the sums reproduce TTFT and latency
//! *exactly* because phases are contiguous integer-microsecond segments
//! cut at the journal's own event boundaries.
//!
//! Rendering makes one pass over the journal and builds no JSON tree:
//! the writers append straight to the output text through the `json`
//! module's object writer (literal keys, labels written in place,
//! integers from a digit table), [`trace_digest`] hashes each canonical
//! line as it is written, and [`perfetto_json`] reads every request's
//! timeline from one sorted `(request, event)` index
//! ([`request_timelines`]) instead of scanning the journal once per
//! request, writing each request's lane as soon as its timeline is
//! built.

use std::collections::BTreeSet;

use tokenflow_metrics::Fnv1a64;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{TraceEvent, TraceEventKind, TraceJournal, TraceSource};

use crate::json::{write_int, write_num, ArrWriter, Json, ObjWriter};

/// Writes `source`'s label as a JSON string, in place.
fn write_source(out: &mut String, source: TraceSource) {
    let (text, index) = source.label_parts();
    out.push('"');
    out.push_str(text);
    if let Some(i) = index {
        write_int(out, u64::from(i));
    }
    out.push('"');
}

/// Writes one event as its canonical JSON object: the `(t_us, src,
/// seq, kind)` envelope followed by the kind's payload fields.
fn write_event(out: &mut String, e: &TraceEvent, with_seq: bool) {
    let mut o = ObjWriter::open(out);
    o.int("t_us", e.time.as_micros());
    write_source(o.key("src"), e.source);
    if with_seq {
        // Meta events (horizon arm/end) consume sequence numbers from
        // the same per-source counter as decisions, so canonical seq
        // *values* shift with the fast path even though the canonical
        // *order* does not. The digestable rendering drops them.
        o.int("seq", e.seq);
    }
    o.str("kind", e.kind.name());
    match &e.kind {
        TraceEventKind::Arrived { id, arrival } => {
            o.int("id", id.0).int("arrival_us", arrival.as_micros());
        }
        TraceEventKind::Dispatch {
            id,
            replica,
            scores,
        } => {
            o.int("id", id.0).int("replica", u64::from(*replica));
            let mut a = ArrWriter::open(o.key("scores"));
            for &v in scores {
                write_num(a.item(), v);
            }
            a.close();
        }
        TraceEventKind::Admitted {
            id,
            recompute,
            queued_behind_tokens,
        } => {
            o.int("id", id.0)
                .bool("recompute", *recompute)
                .int("queued_behind_tokens", *queued_behind_tokens);
        }
        TraceEventKind::PrefillChunk {
            id,
            tokens,
            completes,
        } => {
            o.int("id", id.0)
                .int("tokens", *tokens)
                .bool("completes", *completes);
        }
        TraceEventKind::FirstToken { id }
        | TraceEventKind::Finished { id }
        | TraceEventKind::Shed { id }
        | TraceEventKind::Resumed { id }
        | TraceEventKind::EvictDone { id }
        | TraceEventKind::LoadDone { id }
        | TraceEventKind::AdmissionShed { id } => {
            o.int("id", id.0);
        }
        TraceEventKind::Preempted { id, discard, cause } => {
            o.int("id", id.0)
                .bool("discard", *discard)
                .str("cause", cause.label());
        }
        TraceEventKind::DecodeGate { id, paused } => {
            o.int("id", id.0).bool("paused", *paused);
        }
        TraceEventKind::EvictStart { id, tokens } | TraceEventKind::LoadStart { id, tokens } => {
            o.int("id", id.0).int("tokens", *tokens);
        }
        TraceEventKind::Reprice { id, before, after } => {
            o.int("id", id.0)
                .num("before", *before)
                .num("after", *after);
        }
        TraceEventKind::Swap {
            evicted,
            admitted,
            evicted_priority,
            admitted_priority,
        } => {
            o.int("evicted", evicted.0)
                .int("admitted", admitted.0)
                .num("evicted_priority", *evicted_priority)
                .num("admitted_priority", *admitted_priority);
        }
        TraceEventKind::Scale {
            delta,
            applied,
            active,
            terms,
        } => {
            o.num("delta", *delta as f64)
                .bool("applied", *applied)
                .int("active", *active);
            let mut t = ObjWriter::open(o.key("terms"));
            for &(name, v) in terms {
                t.num(name, v);
            }
            t.close();
        }
        TraceEventKind::HorizonArmed {
            valid_until,
            gates_static,
        } => {
            // `SimTime::MAX` encodes an unbounded certificate.
            if *valid_until == SimTime::MAX {
                o.key("valid_until_us").push_str("null");
            } else {
                o.int("valid_until_us", valid_until.as_micros());
            }
            o.bool("gates_static", *gates_static);
        }
        TraceEventKind::HorizonEnded { reason } => {
            o.str("reason", reason.label());
        }
        TraceEventKind::ReplicaCrashed { replica, lost } => {
            o.int("replica", u64::from(*replica)).int("lost", *lost);
        }
        TraceEventKind::ReplicaDegraded { replica, factor }
        | TraceEventKind::LinkDegraded { replica, factor } => {
            o.int("replica", u64::from(*replica)).num("factor", *factor);
        }
        TraceEventKind::BootFailed { replica } => {
            o.int("replica", u64::from(*replica));
        }
        TraceEventKind::RequestLost { id, replica } => {
            o.int("id", id.0).int("replica", u64::from(*replica));
        }
        TraceEventKind::RetryScheduled { id, attempt } => {
            o.int("id", id.0).int("attempt", u64::from(*attempt));
        }
        TraceEventKind::RequestAbandoned { id, attempts } => {
            o.int("id", id.0).int("attempts", u64::from(*attempts));
        }
    }
    o.close();
}

/// Bytes reserved per journal event before a render. On a 4-replica
/// traced cluster run the JSONL averages 98 bytes per event and the
/// Perfetto export 74, so either text is usually written into one
/// allocation instead of growing through copies, each of which holds
/// the old and the new buffer at once.
const LINE_BYTES: usize = 128;

/// One line per event, trailing newline.
fn write_lines<'a>(events: impl Iterator<Item = &'a TraceEvent>, with_seq: bool) -> String {
    let mut out = String::with_capacity(events.size_hint().1.unwrap_or(0) * LINE_BYTES);
    for e in events {
        write_event(&mut out, e, with_seq);
        out.push('\n');
    }
    out
}

/// The full journal as JSONL: one canonical JSON object per line (meta
/// events included), trailing newline.
pub fn trace_jsonl(journal: &TraceJournal) -> String {
    write_lines(journal.events.iter(), true)
}

/// The canonical (meta-filtered, seq-stripped) journal as JSONL — the
/// view that is invariant under executor choice *and* the plan-horizon
/// fast path, and the bytes [`trace_digest`] is taken over. Sequence
/// numbers are dropped because meta events share the per-source
/// counter; the line *order* still carries the total `(time, source,
/// seq)` merge order.
pub fn canonical_trace_jsonl(journal: &TraceJournal) -> String {
    write_lines(journal.canonical(), false)
}

/// FNV-1a digest of the canonical JSONL bytes — the golden-pinnable
/// fingerprint of a run's decision record. Each line is hashed as it is
/// written, so the canonical text is never held whole.
pub fn trace_digest(journal: &TraceJournal) -> u64 {
    let mut hash = Fnv1a64::new();
    let mut line = String::new();
    for e in journal.canonical() {
        line.clear();
        write_event(&mut line, e, false);
        line.push('\n');
        hash.write(line.as_bytes());
    }
    hash.finish()
}

/// Payload fields the validator requires per kind name; `None` for an
/// unknown kind.
fn required_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "arrived" => &["id", "arrival_us"],
        "dispatch" => &["id", "replica", "scores"],
        "admitted" => &["id", "recompute", "queued_behind_tokens"],
        "prefill_chunk" => &["id", "tokens", "completes"],
        "first_token" | "finished" | "shed" | "resumed" | "evict_done" | "load_done" => &["id"],
        "preempted" => &["id", "discard", "cause"],
        "decode_gate" => &["id", "paused"],
        "evict_start" | "load_start" => &["id", "tokens"],
        "reprice" => &["id", "before", "after"],
        "swap" => &[
            "evicted",
            "admitted",
            "evicted_priority",
            "admitted_priority",
        ],
        "scale" => &["delta", "applied", "active", "terms"],
        "horizon_armed" => &["valid_until_us", "gates_static"],
        "horizon_ended" => &["reason"],
        "replica_crashed" => &["replica", "lost"],
        "replica_degraded" | "link_degraded" => &["replica", "factor"],
        "boot_failed" => &["replica"],
        "request_lost" => &["id", "replica"],
        "retry_scheduled" => &["id", "attempt"],
        "request_abandoned" => &["id", "attempts"],
        "admission_shed" => &["id"],
        _ => return None,
    })
}

/// Validates a JSONL trace file: every non-empty line must parse as a
/// JSON object carrying the `(t_us, src, seq, kind)` envelope, a known
/// kind name, that kind's payload fields, and non-decreasing `t_us`.
/// Returns the event count.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_t = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = crate::json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        for key in ["t_us", "src", "seq", "kind"] {
            if v.get(key).is_none() {
                return Err(format!("line {lineno}: missing \"{key}\""));
            }
        }
        let t = v
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: \"t_us\" is not an integer"))?;
        if t < last_t {
            return Err(format!(
                "line {lineno}: time goes backwards ({t} < {last_t})"
            ));
        }
        last_t = t;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: \"kind\" is not a string"))?;
        let required =
            required_keys(kind).ok_or_else(|| format!("line {lineno}: unknown kind \"{kind}\""))?;
        for key in required {
            if v.get(key).is_none() {
                return Err(format!("line {lineno}: kind \"{kind}\" missing \"{key}\""));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// One contiguous wait/progress segment of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// What the request was doing (or waiting on): `queued`, `prefill`,
    /// `decode`, `gated`, `preempted`, `reloading`, or `lost` (between a
    /// replica crash and the retry's dispatch).
    pub label: &'static str,
    /// Segment start (inclusive).
    pub from: SimTime,
    /// Segment end (exclusive).
    pub to: SimTime,
}

impl Phase {
    /// Segment length in integer microseconds.
    pub fn micros(&self) -> u64 {
        self.to.as_micros() - self.from.as_micros()
    }
}

/// One request's causal story, reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline<'a> {
    /// The request (journal id space: submission order).
    pub id: RequestId,
    /// The replica that served it, when the journal records one: the
    /// last dispatch's target, so a crashed request's retry wins.
    pub replica: Option<u32>,
    /// Workload arrival instant (from the `arrived` payload, or the
    /// `dispatch`/`admission_shed` instant that precedes it).
    pub arrival: SimTime,
    /// First-token instant, if reached (the surviving attempt's, when a
    /// crash forced a retry).
    pub first_token_at: Option<SimTime>,
    /// Completion instant, if reached.
    pub finished_at: Option<SimTime>,
    /// True when the request was shed (by a replica or at admission).
    pub shed: bool,
    /// Every event mentioning the request, in journal order.
    pub events: Vec<&'a TraceEvent>,
    /// Contiguous phases from arrival to the last state change. Summing
    /// the phases that end at or before `first_token_at` reproduces
    /// TTFT exactly; summing all phases reproduces latency exactly.
    pub phases: Vec<Phase>,
}

impl<'a> RequestTimeline<'a> {
    /// Runs the phase state machine over `events` (every event mentioning
    /// `id`, in journal order), or `None` when none of them fixes an
    /// arrival.
    fn from_events(id: RequestId, events: Vec<&'a TraceEvent>) -> Option<RequestTimeline<'a>> {
        let arrival = events.iter().find_map(|e| match e.kind {
            TraceEventKind::Arrived { arrival, .. } => Some(arrival),
            TraceEventKind::Dispatch { .. } | TraceEventKind::AdmissionShed { .. } => Some(e.time),
            _ => None,
        })?;
        let replica = events
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                TraceEventKind::Dispatch { replica, .. } => Some(replica),
                _ => None,
            })
            .or_else(|| {
                events.iter().find_map(|e| match e.source {
                    TraceSource::Replica(i) => Some(i),
                    _ => None,
                })
            });
        let mut timeline = RequestTimeline {
            id,
            replica,
            arrival,
            first_token_at: None,
            finished_at: None,
            shed: false,
            events: Vec::new(),
            phases: Vec::new(),
        };
        // Walk the events as a state machine, cutting a phase at every
        // state change. Events are already in time order.
        let mut label = "queued";
        let mut start = arrival;
        for e in &events {
            let next = match &e.kind {
                // A lost request waits for its retry's dispatch; whatever
                // the crashed replica journaled at the crash instant
                // describes the dead incarnation.
                TraceEventKind::Dispatch { .. } if label == "lost" => "queued",
                _ if label == "lost" => continue,
                // The retry starts its stream over: its own first token,
                // not the dead attempt's, ends the TTFT window.
                TraceEventKind::RequestLost { .. } => {
                    timeline.first_token_at = None;
                    "lost"
                }
                TraceEventKind::Admitted { .. } => "prefill",
                TraceEventKind::FirstToken { .. } => {
                    timeline.first_token_at = Some(e.time);
                    "decode"
                }
                TraceEventKind::Preempted { .. } => "preempted",
                TraceEventKind::Resumed { .. } => "reloading",
                TraceEventKind::LoadDone { .. } if timeline.first_token_at.is_some() => "decode",
                TraceEventKind::LoadDone { .. } => "prefill",
                TraceEventKind::DecodeGate { paused: true, .. } => "gated",
                TraceEventKind::DecodeGate { paused: false, .. } => "decode",
                TraceEventKind::Finished { .. } => {
                    timeline.finished_at = Some(e.time);
                    "done"
                }
                TraceEventKind::Shed { .. } | TraceEventKind::AdmissionShed { .. } => {
                    timeline.shed = true;
                    "shed"
                }
                // Transfer progress and scheduler pricing don't change
                // what the request is waiting on; swaps are covered by
                // the preempt/admit events they cause; a first dispatch
                // leaves the request queued.
                _ => continue,
            };
            if e.time > start {
                timeline.phases.push(Phase {
                    label,
                    from: start,
                    to: e.time,
                });
                start = e.time;
            }
            label = next;
        }
        timeline.events = events;
        Some(timeline)
    }

    /// Per-label wait totals (micros) over phases inside `[arrival,
    /// until]`, in first-appearance order. Their sum is exactly
    /// `until - arrival`.
    pub fn attribution(&self, until: SimTime) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for p in &self.phases {
            if p.from >= until {
                break;
            }
            let end = p.to.min(until);
            let micros = end.as_micros() - p.from.as_micros();
            if micros == 0 {
                continue;
            }
            match totals.iter_mut().find(|(l, _)| *l == p.label) {
                Some((_, total)) => *total += micros,
                None => totals.push((p.label, micros)),
            }
        }
        totals
    }

    /// Per-label totals up to first token; `None` before first token.
    pub fn ttft_attribution(&self) -> Option<Vec<(&'static str, u64)>> {
        self.first_token_at.map(|t| self.attribution(t))
    }
}

/// Reconstructs `id`'s timeline with one scan of the journal, or `None`
/// when the journal never mentions it.
pub fn request_timeline(journal: &TraceJournal, id: RequestId) -> Option<RequestTimeline<'_>> {
    RequestTimeline::from_events(id, journal.for_request(id).collect())
}

/// Every request's timeline, in id order — the same timelines
/// [`request_timeline`] builds one id at a time, from one pass over the
/// journal: an index of `(request, event)` pairs over every mention
/// (both sides of a `swap`), pushed in journal order and stably sorted
/// by request once, so the cost is O(E log E) rather than a journal scan
/// per request.
pub fn request_timelines(journal: &TraceJournal) -> Vec<RequestTimeline<'_>> {
    let mut timelines = Vec::new();
    each_request_timeline(journal, |timeline| timelines.push(timeline));
    timelines
}

/// Builds [`request_timelines`] one at a time, handing each to `visit`
/// as soon as it is built, while its scattered events are still in
/// cache.
fn each_request_timeline<'a>(
    journal: &'a TraceJournal,
    mut visit: impl FnMut(RequestTimeline<'a>),
) {
    let mut index: Vec<(RequestId, &TraceEvent)> = Vec::with_capacity(journal.len());
    for e in &journal.events {
        if let Some(id) = e.kind.request() {
            index.push((id, e));
        }
        // `request()` names a swap's evicted side; `mentions` matches both.
        if let TraceEventKind::Swap {
            evicted, admitted, ..
        } = e.kind
        {
            if admitted != evicted {
                index.push((admitted, e));
            }
        }
    }
    index.sort_by_key(|&(id, _)| id);
    for group in index.chunk_by(|a, b| a.0 == b.0) {
        let timeline = group.first().and_then(|&(id, _)| {
            RequestTimeline::from_events(id, group.iter().map(|&(_, e)| e).collect())
        });
        if let Some(timeline) = timeline {
            visit(timeline);
        }
    }
}

fn secs(t: SimTime) -> String {
    format!("{:.6}s", t.as_micros() as f64 / 1e6)
}

fn dur_secs(micros: u64) -> String {
    format!("{:.6}s", micros as f64 / 1e6)
}

/// One human-readable line per journal event.
fn describe(e: &TraceEvent) -> String {
    let what = match &e.kind {
        TraceEventKind::Arrived { arrival, .. } => {
            format!("arrived (spec arrival {})", secs(*arrival))
        }
        TraceEventKind::Dispatch {
            replica, scores, ..
        } => {
            if scores.is_empty() {
                format!("dispatched to replica {replica}")
            } else {
                let scores: Vec<String> = scores.iter().map(|v| format!("{v:.3}")).collect();
                format!(
                    "dispatched to replica {replica} (scores [{}])",
                    scores.join(", ")
                )
            }
        }
        TraceEventKind::Admitted {
            recompute,
            queued_behind_tokens,
            ..
        } => format!(
            "admitted{} behind {queued_behind_tokens} queued prefill tokens",
            if *recompute { " (recompute)" } else { "" }
        ),
        TraceEventKind::PrefillChunk {
            tokens, completes, ..
        } => format!(
            "prefilled {tokens} tokens{}",
            if *completes {
                " (prefill complete)"
            } else {
                ""
            }
        ),
        TraceEventKind::FirstToken { .. } => "first token".to_string(),
        TraceEventKind::Finished { .. } => "finished".to_string(),
        TraceEventKind::Preempted { discard, cause, .. } => format!(
            "preempted ({}, {})",
            if *discard { "discarded" } else { "offloaded" },
            cause.label()
        ),
        TraceEventKind::Shed { .. } => "shed (admission gave up under memory pressure)".to_string(),
        TraceEventKind::Resumed { .. } => "resumed".to_string(),
        TraceEventKind::DecodeGate { paused, .. } => {
            if *paused {
                "decode gated (scheduler paused streaming)".to_string()
            } else {
                "decode gate released".to_string()
            }
        }
        TraceEventKind::EvictStart { tokens, .. } => {
            format!("evicting {tokens} KV tokens to host")
        }
        TraceEventKind::EvictDone { .. } => "eviction complete".to_string(),
        TraceEventKind::LoadStart { tokens, .. } => {
            format!("loading {tokens} KV tokens back to GPU")
        }
        TraceEventKind::LoadDone { .. } => "load complete".to_string(),
        TraceEventKind::Reprice { before, after, .. } => {
            format!("repriced {before:.4} -> {after:.4}")
        }
        TraceEventKind::Swap {
            evicted, admitted, ..
        } => format!("swap: {evicted} out, {admitted} in"),
        TraceEventKind::ReplicaCrashed { replica, lost } => {
            format!("replica {replica} crashed ({lost} in-flight requests lost)")
        }
        TraceEventKind::ReplicaDegraded { replica, factor } => {
            if (*factor - 1.0).abs() < f64::EPSILON {
                format!("replica {replica} recovered full compute throughput")
            } else {
                format!("replica {replica} degraded to {factor:.2}x compute throughput")
            }
        }
        TraceEventKind::BootFailed { replica } => {
            format!("replica {replica} failed to boot")
        }
        TraceEventKind::LinkDegraded { replica, factor } => {
            if (*factor - 1.0).abs() < f64::EPSILON {
                format!("replica {replica} KV link restored")
            } else {
                format!("replica {replica} KV link degraded to {factor:.2}x bandwidth")
            }
        }
        TraceEventKind::RequestLost { replica, .. } => {
            format!("lost to replica {replica} crash")
        }
        TraceEventKind::RetryScheduled { attempt, .. } => {
            format!("retry scheduled (attempt {attempt})")
        }
        TraceEventKind::RequestAbandoned { attempts, .. } => {
            format!("abandoned after {attempts} lost attempts")
        }
        TraceEventKind::AdmissionShed { .. } => {
            "shed at the dispatch barrier (cluster overload)".to_string()
        }
        TraceEventKind::Scale { .. }
        | TraceEventKind::HorizonArmed { .. }
        | TraceEventKind::HorizonEnded { .. } => e.kind.name().to_string(),
    };
    format!("  {:>12}  [{}] {}", secs(e.time), e.source.label(), what)
}

/// Renders `id`'s causal timeline and wait attribution, or `None` when
/// the journal never mentions it.
pub fn explain(journal: &TraceJournal, id: RequestId) -> Option<String> {
    let timeline = request_timeline(journal, id)?;
    let mut out = String::new();
    out.push_str(&format!("{id} — decision timeline\n"));
    for e in &timeline.events {
        out.push_str(&describe(e));
        out.push('\n');
    }
    if let (Some(first), Some(attribution)) = (timeline.first_token_at, timeline.ttft_attribution())
    {
        let ttft = first.as_micros() - timeline.arrival.as_micros();
        out.push_str(&format!("time to first token {}:\n", dur_secs(ttft)));
        for (label, micros) in &attribution {
            out.push_str(&format!("  {label:<10} {}\n", dur_secs(*micros)));
        }
        debug_assert_eq!(attribution.iter().map(|(_, us)| us).sum::<u64>(), ttft);
    }
    if let Some(finished) = timeline.finished_at {
        let latency = finished.as_micros() - timeline.arrival.as_micros();
        out.push_str(&format!("total latency {}:\n", dur_secs(latency)));
        for (label, micros) in timeline.attribution(finished) {
            out.push_str(&format!("  {label:<10} {}\n", dur_secs(micros)));
        }
    } else if timeline.shed {
        out.push_str("request was shed and never completed\n");
    } else {
        out.push_str("request did not complete within the run\n");
    }
    Some(out)
}

/// Perfetto track identity for a source: control and coordinator get
/// their own processes, each replica gets one process track.
fn pid_of(source: TraceSource) -> u64 {
    match source {
        TraceSource::Control => 1,
        TraceSource::Coordinator => 2,
        TraceSource::Replica(i) => 10 + u64::from(i),
    }
}

/// A track-naming metadata record.
fn meta(w: &mut ArrWriter<'_>, name: &str, pid: u64, tid: Option<u64>, label: &str) {
    let mut o = ObjWriter::open(w.item());
    o.str("name", name).str("ph", "M").int("pid", pid);
    if let Some(tid) = tid {
        o.int("tid", tid);
    }
    ObjWriter::open(o.key("args")).str("name", label).close();
    o.close();
}

/// One end of a flow arrow: `s` starts it, `f` binds its finish to the
/// enclosing slice.
fn flow(w: &mut ArrWriter<'_>, name: &str, ph: &str, id: u64, pid: u64, tid: u64, at: SimTime) {
    let mut o = ObjWriter::open(w.item());
    o.str("name", name).str("cat", "flow").str("ph", ph);
    if ph == "f" {
        o.str("bp", "e");
    }
    o.int("id", id)
        .int("pid", pid)
        .int("tid", tid)
        .int("ts", at.as_micros())
        .close();
}

/// One request's lane, on the replica that served it (a request shed
/// at admission never reached one): its phase slices, its first-token,
/// finish and shed markers, and the flow arrows that start or end on it.
fn write_lane(w: &mut ArrWriter<'_>, timeline: &RequestTimeline<'_>, flow_id: &mut u64) {
    let coordinator = pid_of(TraceSource::Coordinator);
    let pid = timeline
        .replica
        .map_or(coordinator, |r| pid_of(TraceSource::Replica(r)));
    let tid = timeline.id.0 + 1;
    meta(w, "thread_name", pid, Some(tid), &timeline.id.to_string());
    for p in &timeline.phases {
        ObjWriter::open(w.item())
            .str("name", p.label)
            .str("cat", "request")
            .str("ph", "X")
            .int("pid", pid)
            .int("tid", tid)
            .int("ts", p.from.as_micros())
            .int("dur", p.micros())
            .close();
    }
    let events = &timeline.events;
    for (at, e) in events.iter().enumerate() {
        match &e.kind {
            TraceEventKind::FirstToken { .. }
            | TraceEventKind::Finished { .. }
            | TraceEventKind::AdmissionShed { .. } => {
                ObjWriter::open(w.item())
                    .str("name", e.kind.name())
                    .str("cat", "request")
                    .str("ph", "i")
                    .str("s", "t")
                    .int("pid", pid)
                    .int("tid", tid)
                    .int("ts", e.time.as_micros())
                    .close();
            }
            // Flow arrow: the coordinator's dispatch decision flows
            // into the replica-side arrival it caused (the first one
            // after it, so a crash retry's arrow ends at the retry).
            TraceEventKind::Dispatch { .. } => {
                *flow_id += 1;
                flow(w, "dispatch", "s", *flow_id, coordinator, tid, e.time);
                let arrived = events
                    .iter()
                    .skip(at)
                    .find(|a| matches!(a.kind, TraceEventKind::Arrived { .. }));
                if let Some(a) = arrived {
                    flow(w, "dispatch", "f", *flow_id, pid, tid, a.time);
                }
            }
            // Flow arrow: a preemption flows into the resumption (or
            // recompute re-admission) that undoes it.
            TraceEventKind::Preempted { .. } => {
                let from = events.partition_point(|r| r.time < e.time);
                let revival = events.iter().skip(from).find(|r| {
                    matches!(
                        r.kind,
                        TraceEventKind::Resumed { .. }
                            | TraceEventKind::Admitted {
                                recompute: true,
                                ..
                            }
                    )
                });
                if let Some(r) = revival {
                    *flow_id += 1;
                    flow(w, "preempt", "s", *flow_id, pid, tid, e.time);
                    flow(w, "preempt", "f", *flow_id, pid, tid, r.time);
                }
            }
            _ => {}
        }
    }
}

/// Renders the journal as Chrome trace-event JSON (Perfetto-loadable):
/// one process per replica (plus control/coordinator tracks), one
/// thread lane per request carrying its phase slices and markers, and
/// flow arrows stitching dispatch → arrival and preempt → resume.
pub fn perfetto_json(journal: &TraceJournal) -> String {
    let mut out = String::with_capacity(journal.len() * LINE_BYTES);
    let mut doc = ObjWriter::open(&mut out);
    doc.str("displayTimeUnit", "ms");
    let mut w = ArrWriter::open(doc.key("traceEvents"));
    // Track naming: processes for every source seen, lanes per request.
    // A journal has a handful of sources, so each event costs one lookup
    // in a set of that size.
    let mut sources = BTreeSet::new();
    for e in &journal.events {
        sources.insert(e.source);
    }
    for source in sources {
        meta(
            &mut w,
            "process_name",
            pid_of(source),
            None,
            &source.label(),
        );
    }
    // One lane per request, in id order.
    let mut flow_id = 0u64;
    each_request_timeline(journal, |timeline| {
        write_lane(&mut w, &timeline, &mut flow_id);
    });
    // Source-level events (scale decisions, horizon arms) as instants on
    // their own track's lane 0.
    for e in journal.events.iter().filter(|e| e.kind.request().is_none()) {
        ObjWriter::open(w.item())
            .str("name", e.kind.name())
            .str("cat", if e.kind.is_meta() { "meta" } else { "control" })
            .str("ph", "i")
            .str("s", "p")
            .int("pid", pid_of(e.source))
            .int("tid", 0)
            .int("ts", e.time.as_micros())
            .close();
    }
    w.close();
    doc.close();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_trace::{TraceSink, TraceSource};

    fn sample_journal() -> TraceJournal {
        let mut sink = TraceSink::enabled(TraceSource::Replica(0));
        let t = SimTime::from_micros;
        let id = RequestId(0);
        sink.emit(t(0), TraceEventKind::Arrived { id, arrival: t(0) });
        sink.emit(
            t(100),
            TraceEventKind::Admitted {
                id,
                recompute: false,
                queued_behind_tokens: 64,
            },
        );
        sink.emit(
            t(300),
            TraceEventKind::PrefillChunk {
                id,
                tokens: 128,
                completes: true,
            },
        );
        sink.emit(t(300), TraceEventKind::FirstToken { id });
        sink.emit(t(900), TraceEventKind::Finished { id });
        sink.into_journal().expect("enabled sink yields a journal")
    }

    #[test]
    fn jsonl_lines_validate_and_digest_is_stable() {
        let journal = sample_journal();
        let text = trace_jsonl(&journal);
        assert_eq!(validate_trace_jsonl(&text).unwrap(), 5);
        assert_eq!(trace_digest(&journal), trace_digest(&journal.clone()));
        // Canonical covers the same events here (no meta emitted), but
        // drops the fast-path-variant seq field.
        let canonical = canonical_trace_jsonl(&journal);
        assert_eq!(canonical.lines().count(), 5);
        assert!(!canonical.contains("\"seq\""));
    }

    #[test]
    fn validator_rejects_missing_payload_fields() {
        let bad = r#"{"t_us":0,"src":"replica-0","seq":0,"kind":"admitted","id":0}"#;
        let err = validate_trace_jsonl(bad).unwrap_err();
        assert!(err.contains("recompute"), "{err}");
        let unknown = r#"{"t_us":0,"src":"replica-0","seq":0,"kind":"nope"}"#;
        assert!(validate_trace_jsonl(unknown).is_err());
    }

    #[test]
    fn timeline_attribution_sums_to_ttft_and_latency() {
        let journal = sample_journal();
        let timeline = request_timeline(&journal, RequestId(0)).unwrap();
        assert_eq!(timeline.first_token_at, Some(SimTime::from_micros(300)));
        let attribution = timeline.ttft_attribution().unwrap();
        assert_eq!(attribution, vec![("queued", 100), ("prefill", 200)]);
        let total: u64 = timeline
            .attribution(timeline.finished_at.unwrap())
            .iter()
            .map(|(_, us)| us)
            .sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn explain_renders_every_event_and_the_attribution() {
        let journal = sample_journal();
        let text = explain(&journal, RequestId(0)).unwrap();
        assert!(text.contains("decision timeline"));
        assert!(text.contains("first token"));
        assert!(text.contains("time to first token 0.000300s"));
        assert!(text.contains("total latency 0.000900s"));
        assert!(explain(&journal, RequestId(99)).is_none());
    }

    #[test]
    fn perfetto_output_is_valid_json_with_tracks() {
        let journal = sample_journal();
        let doc = crate::json::parse(&perfetto_json(&journal)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        // Phase slices carry durations; metadata names the tracks.
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("X")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
    }

    /// One event of every kind, with fractional, negative, empty and
    /// unbounded payload values.
    fn every_kind_journal() -> TraceJournal {
        use tokenflow_trace::{HorizonEndReason, PreemptCause};
        let id = RequestId(7);
        let kinds = vec![
            TraceEventKind::Arrived {
                id,
                arrival: SimTime::from_micros(3),
            },
            TraceEventKind::Dispatch {
                id,
                replica: 1,
                scores: vec![0.25, 2.0, -1.5],
            },
            TraceEventKind::Dispatch {
                id,
                replica: 0,
                scores: Vec::new(),
            },
            TraceEventKind::Admitted {
                id,
                recompute: true,
                queued_behind_tokens: 640,
            },
            TraceEventKind::PrefillChunk {
                id,
                tokens: 128,
                completes: false,
            },
            TraceEventKind::FirstToken { id },
            TraceEventKind::Finished { id },
            TraceEventKind::Preempted {
                id,
                discard: false,
                cause: PreemptCause::Reclaim,
            },
            TraceEventKind::Shed { id },
            TraceEventKind::Resumed { id },
            TraceEventKind::DecodeGate { id, paused: true },
            TraceEventKind::EvictStart { id, tokens: 393 },
            TraceEventKind::EvictDone { id },
            TraceEventKind::LoadStart { id, tokens: 393 },
            TraceEventKind::LoadDone { id },
            TraceEventKind::Reprice {
                id,
                before: 1.7816,
                after: 0.0003,
            },
            TraceEventKind::Swap {
                evicted: id,
                admitted: RequestId(8),
                evicted_priority: 0.5,
                admitted_priority: 1e-9,
            },
            TraceEventKind::Scale {
                delta: -2,
                applied: false,
                active: 6,
                terms: vec![("queued", 12.0), ("utilization", 0.875)],
            },
            TraceEventKind::HorizonArmed {
                valid_until: SimTime::MAX,
                gates_static: true,
            },
            TraceEventKind::HorizonArmed {
                valid_until: SimTime::from_micros(1_500),
                gates_static: false,
            },
            TraceEventKind::HorizonEnded {
                reason: HorizonEndReason::Invalidated,
            },
            TraceEventKind::ReplicaCrashed {
                replica: 2,
                lost: 5,
            },
            TraceEventKind::ReplicaDegraded {
                replica: 1,
                factor: 0.5,
            },
            TraceEventKind::BootFailed { replica: 3 },
            TraceEventKind::LinkDegraded {
                replica: 1,
                factor: 1.0,
            },
            TraceEventKind::RequestLost { id, replica: 2 },
            TraceEventKind::RetryScheduled { id, attempt: 1 },
            TraceEventKind::RequestAbandoned { id, attempts: 3 },
            TraceEventKind::AdmissionShed { id },
        ];
        let mut sink = TraceSink::enabled(TraceSource::Coordinator);
        for (i, kind) in kinds.into_iter().enumerate() {
            sink.emit(SimTime::from_micros(10 * i as u64), kind);
        }
        sink.into_journal().expect("enabled sink yields a journal")
    }

    #[test]
    fn every_kind_renders_canonical_validating_json() {
        let journal = every_kind_journal();
        let text = trace_jsonl(&journal);
        assert_eq!(validate_trace_jsonl(&text), Ok(journal.len()));
        // Canonical text is a fixed point of parse-then-emit: the direct
        // writers produce exactly what the `Json` emitter would.
        for line in text.lines().chain(canonical_trace_jsonl(&journal).lines()) {
            assert_eq!(crate::json::parse(line).unwrap().emit(), line);
        }
        assert!(text.contains(r#""scores":[0.25,2,-1.5]"#), "{text}");
        assert!(text.contains(r#""scores":[]"#), "{text}");
        assert!(text.contains(r#""valid_until_us":null"#), "{text}");
        assert!(
            text.contains(
                r#""delta":-2,"applied":false,"active":6,"terms":{"queued":12,"utilization":0.875}"#
            ),
            "{text}"
        );
    }

    /// One event of each of the 27 kinds, each from its own source, time
    /// and sequence number, with the integer, float and string edges of
    /// the canonical writer: ids and counts on both sides of 10^15 (the
    /// float fallback) up to `u64::MAX`, negative and non-integral
    /// floats, an unbounded horizon, and multi-digit replica labels.
    fn golden_kind_journal() -> TraceJournal {
        use tokenflow_trace::{HorizonEndReason, PreemptCause};
        let big = RequestId(1_000_000_000_000_000);
        let edge = RequestId(999_999_999_999_999);
        let id = RequestId(7);
        let kinds = vec![
            TraceEventKind::Arrived {
                id: big,
                arrival: SimTime::from_micros(1_000_000_000_000_007),
            },
            TraceEventKind::Dispatch {
                id: edge,
                replica: 12,
                scores: vec![0.25, 2.0, -1.5, 1e-9, 1e21],
            },
            TraceEventKind::Admitted {
                id,
                recompute: true,
                queued_behind_tokens: u64::MAX,
            },
            TraceEventKind::PrefillChunk {
                id,
                tokens: 0,
                completes: false,
            },
            TraceEventKind::FirstToken { id },
            TraceEventKind::Finished { id },
            TraceEventKind::Preempted {
                id,
                discard: true,
                cause: PreemptCause::Planned,
            },
            TraceEventKind::Shed { id },
            TraceEventKind::Resumed { id },
            TraceEventKind::DecodeGate { id, paused: false },
            TraceEventKind::EvictStart { id, tokens: 99 },
            TraceEventKind::EvictDone { id },
            TraceEventKind::LoadStart { id, tokens: 100 },
            TraceEventKind::LoadDone { id },
            TraceEventKind::Reprice {
                id,
                before: -0.125,
                after: 1.7816,
            },
            TraceEventKind::Swap {
                evicted: id,
                admitted: RequestId(10),
                evicted_priority: -3.0,
                admitted_priority: 123456.789,
            },
            TraceEventKind::Scale {
                delta: -2,
                applied: false,
                active: 6,
                terms: vec![("queued", 12.0), ("utilization", 0.875), ("slack", -0.5)],
            },
            TraceEventKind::HorizonArmed {
                valid_until: SimTime::MAX,
                gates_static: true,
            },
            TraceEventKind::HorizonEnded {
                reason: HorizonEndReason::Expired,
            },
            TraceEventKind::ReplicaCrashed {
                replica: 2,
                lost: 5,
            },
            TraceEventKind::ReplicaDegraded {
                replica: 1,
                factor: 0.5,
            },
            TraceEventKind::BootFailed { replica: 30 },
            TraceEventKind::LinkDegraded {
                replica: 1,
                factor: 1.0,
            },
            TraceEventKind::RequestLost { id, replica: 2 },
            TraceEventKind::RetryScheduled { id, attempt: 1 },
            TraceEventKind::RequestAbandoned { id, attempts: 3 },
            TraceEventKind::AdmissionShed { id },
        ];
        let sources = [
            TraceSource::Control,
            TraceSource::Coordinator,
            TraceSource::Replica(0),
            TraceSource::Replica(9),
            TraceSource::Replica(10),
            TraceSource::Replica(4_294_967_295),
        ];
        let events = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                time: SimTime::from_micros(10_000_000 * i as u64 + 99),
                source: sources[i % sources.len()],
                seq: [0, 9, 10, 999_999_999_999_999, 1_000_000_000_000_000][i % 5],
                kind,
            })
            .collect();
        TraceJournal { events }
    }

    /// The JSONL line of every kind, pinned byte for byte. The canonical
    /// view must be the same lines without meta kinds and `seq`.
    #[test]
    fn every_kind_renders_its_pinned_line() {
        const PINNED: [&str; 27] = [
            r#"{"t_us":99,"src":"control","seq":0,"kind":"arrived","id":1000000000000000.0,"arrival_us":1000000000000007.0}"#,
            r#"{"t_us":10000099,"src":"coordinator","seq":9,"kind":"dispatch","id":999999999999999,"replica":12,"scores":[0.25,2,-1.5,1e-9,1e21]}"#,
            r#"{"t_us":20000099,"src":"replica-0","seq":10,"kind":"admitted","id":7,"recompute":true,"queued_behind_tokens":1.8446744073709552e19}"#,
            r#"{"t_us":30000099,"src":"replica-9","seq":999999999999999,"kind":"prefill_chunk","id":7,"tokens":0,"completes":false}"#,
            r#"{"t_us":40000099,"src":"replica-10","seq":1000000000000000.0,"kind":"first_token","id":7}"#,
            r#"{"t_us":50000099,"src":"replica-4294967295","seq":0,"kind":"finished","id":7}"#,
            r#"{"t_us":60000099,"src":"control","seq":9,"kind":"preempted","id":7,"discard":true,"cause":"planned"}"#,
            r#"{"t_us":70000099,"src":"coordinator","seq":10,"kind":"shed","id":7}"#,
            r#"{"t_us":80000099,"src":"replica-0","seq":999999999999999,"kind":"resumed","id":7}"#,
            r#"{"t_us":90000099,"src":"replica-9","seq":1000000000000000.0,"kind":"decode_gate","id":7,"paused":false}"#,
            r#"{"t_us":100000099,"src":"replica-10","seq":0,"kind":"evict_start","id":7,"tokens":99}"#,
            r#"{"t_us":110000099,"src":"replica-4294967295","seq":9,"kind":"evict_done","id":7}"#,
            r#"{"t_us":120000099,"src":"control","seq":10,"kind":"load_start","id":7,"tokens":100}"#,
            r#"{"t_us":130000099,"src":"coordinator","seq":999999999999999,"kind":"load_done","id":7}"#,
            r#"{"t_us":140000099,"src":"replica-0","seq":1000000000000000.0,"kind":"reprice","id":7,"before":-0.125,"after":1.7816}"#,
            r#"{"t_us":150000099,"src":"replica-9","seq":0,"kind":"swap","evicted":7,"admitted":10,"evicted_priority":-3,"admitted_priority":123456.789}"#,
            r#"{"t_us":160000099,"src":"replica-10","seq":9,"kind":"scale","delta":-2,"applied":false,"active":6,"terms":{"queued":12,"utilization":0.875,"slack":-0.5}}"#,
            r#"{"t_us":170000099,"src":"replica-4294967295","seq":10,"kind":"horizon_armed","valid_until_us":null,"gates_static":true}"#,
            r#"{"t_us":180000099,"src":"control","seq":999999999999999,"kind":"horizon_ended","reason":"expired"}"#,
            r#"{"t_us":190000099,"src":"coordinator","seq":1000000000000000.0,"kind":"replica_crashed","replica":2,"lost":5}"#,
            r#"{"t_us":200000099,"src":"replica-0","seq":0,"kind":"replica_degraded","replica":1,"factor":0.5}"#,
            r#"{"t_us":210000099,"src":"replica-9","seq":9,"kind":"boot_failed","replica":30}"#,
            r#"{"t_us":220000099,"src":"replica-10","seq":10,"kind":"link_degraded","replica":1,"factor":1}"#,
            r#"{"t_us":230000099,"src":"replica-4294967295","seq":999999999999999,"kind":"request_lost","id":7,"replica":2}"#,
            r#"{"t_us":240000099,"src":"control","seq":1000000000000000.0,"kind":"retry_scheduled","id":7,"attempt":1}"#,
            r#"{"t_us":250000099,"src":"coordinator","seq":0,"kind":"request_abandoned","id":7,"attempts":3}"#,
            r#"{"t_us":260000099,"src":"replica-0","seq":9,"kind":"admission_shed","id":7}"#,
        ];
        let journal = golden_kind_journal();
        let text = trace_jsonl(&journal);
        assert_eq!(text.lines().collect::<Vec<_>>(), PINNED);
        assert!(text.ends_with("}\n"));
        let stripped: Vec<String> = PINNED
            .iter()
            .filter(|line| !line.contains(r#""kind":"horizon_"#))
            .map(|line| {
                let from = line.find(r#","seq":"#).expect("every line has a seq");
                let to = from + line[from + 1..].find(',').expect("kind follows seq") + 1;
                format!("{}{}", &line[..from], &line[to..])
            })
            .collect();
        let canonical = canonical_trace_jsonl(&journal);
        assert_eq!(canonical.lines().collect::<Vec<_>>(), stripped);
        assert_eq!(
            trace_digest(&journal),
            tokenflow_metrics::fnv1a64(canonical.as_bytes())
        );
    }

    #[test]
    fn streamed_digest_equals_the_digest_of_the_canonical_text() {
        for journal in [
            sample_journal(),
            every_kind_journal(),
            TraceJournal::default(),
        ] {
            assert_eq!(
                trace_digest(&journal),
                tokenflow_metrics::fnv1a64(canonical_trace_jsonl(&journal).as_bytes())
            );
        }
    }

    /// req#0 decodes on replica 2, is lost to its crash, and its retry on
    /// replica 1 is offloaded and reloaded mid-prefill before streaming;
    /// req#1 is lost after its first token and then abandoned.
    fn lost_and_retried_journal() -> TraceJournal {
        use tokenflow_trace::PreemptCause;
        let t = SimTime::from_micros;
        let (retried, abandoned) = (RequestId(0), RequestId(1));
        let mut sink = TraceSink::enabled(TraceSource::Coordinator);
        for id in [retried, abandoned] {
            sink.emit(
                t(0),
                TraceEventKind::Dispatch {
                    id,
                    replica: 2,
                    scores: Vec::new(),
                },
            );
            sink.emit(t(0), TraceEventKind::Arrived { id, arrival: t(0) });
            sink.emit(
                t(10),
                TraceEventKind::Admitted {
                    id,
                    recompute: false,
                    queued_behind_tokens: 0,
                },
            );
            sink.emit(t(30), TraceEventKind::FirstToken { id });
            sink.emit(t(50), TraceEventKind::RequestLost { id, replica: 2 });
        }
        let id = retried;
        sink.emit(
            t(80),
            TraceEventKind::Dispatch {
                id,
                replica: 1,
                scores: Vec::new(),
            },
        );
        sink.emit(t(80), TraceEventKind::Arrived { id, arrival: t(0) });
        sink.emit(
            t(90),
            TraceEventKind::Admitted {
                id,
                recompute: false,
                queued_behind_tokens: 0,
            },
        );
        sink.emit(
            t(100),
            TraceEventKind::Preempted {
                id,
                discard: false,
                cause: PreemptCause::Reclaim,
            },
        );
        sink.emit(t(120), TraceEventKind::Resumed { id });
        sink.emit(t(130), TraceEventKind::LoadDone { id });
        sink.emit(t(150), TraceEventKind::FirstToken { id });
        sink.emit(t(200), TraceEventKind::Finished { id });
        sink.emit(
            t(300),
            TraceEventKind::RequestAbandoned {
                id: abandoned,
                attempts: 1,
            },
        );
        sink.into_journal().expect("enabled sink yields a journal")
    }

    #[test]
    fn a_lost_attempts_first_token_does_not_end_the_retrys_ttft() {
        let journal = lost_and_retried_journal();
        let retried = request_timeline(&journal, RequestId(0)).unwrap();
        assert_eq!(retried.replica, Some(1));
        assert_eq!(retried.first_token_at, Some(SimTime::from_micros(150)));
        // The retry reloads before its own first token: still prefill.
        let labels: Vec<(&str, u64)> = retried
            .phases
            .iter()
            .map(|p| (p.label, p.from.as_micros()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("queued", 0),
                ("prefill", 10),
                ("decode", 30),
                ("lost", 50),
                ("queued", 80),
                ("prefill", 90),
                ("preempted", 100),
                ("reloading", 120),
                ("prefill", 130),
                ("decode", 150),
            ]
        );
        let ttft = retried.ttft_attribution().unwrap();
        assert_eq!(ttft.iter().map(|(_, us)| us).sum::<u64>(), 150);

        let abandoned = request_timeline(&journal, RequestId(1)).unwrap();
        assert_eq!(abandoned.first_token_at, None);
        assert_eq!(abandoned.ttft_attribution(), None);
        let text = explain(&journal, RequestId(1)).unwrap();
        assert!(!text.contains("time to first token"), "{text}");
        assert!(text.contains("did not complete"), "{text}");
        assert_eq!(request_timelines(&journal), vec![retried, abandoned]);
    }

    #[test]
    fn index_groups_both_sides_of_a_swap() {
        let mut sink = TraceSink::enabled(TraceSource::Replica(0));
        let t = SimTime::from_micros;
        for id in [RequestId(0), RequestId(1)] {
            sink.emit(t(0), TraceEventKind::Arrived { id, arrival: t(0) });
        }
        sink.emit(
            t(5),
            TraceEventKind::Swap {
                evicted: RequestId(0),
                admitted: RequestId(1),
                evicted_priority: 0.1,
                admitted_priority: 0.9,
            },
        );
        let journal = sink.into_journal().unwrap();
        let indexed = request_timelines(&journal);
        let scanned: Vec<_> = (0..3)
            .filter_map(|id| request_timeline(&journal, RequestId(id)))
            .collect();
        assert_eq!(indexed, scanned);
        assert_eq!(indexed.len(), 2);
        assert!(indexed.iter().all(|timeline| timeline.events.len() == 2));
    }
}
