//! Trace analytics: the read side of the span pipeline.
//!
//! [`Trace::parse`] turns span JSONL (the format written by
//! [`crate::span`]) back into span events; [`Forest::build`] restores the
//! parent links into a span forest with per-span self time. On top of
//! that sit the analyses `ftctl trace` exposes:
//!
//! * per-span-name aggregates — count, total/self time, exact p50/p95
//!   ([`Forest::aggregates`]);
//! * critical paths — from each root kind, repeatedly descend into the
//!   longest child ([`Forest::critical_path`], [`Forest::top_roots`]);
//! * trace diffing for regression attribution ([`diff`]);
//! * viewer exports — Chrome trace-event JSON ([`to_chrome`]) and folded
//!   flamegraph stacks weighted by self time ([`to_folded`]);
//! * the DES conversion disruption timeline ([`conversion_timeline`]).
//!
//! The parser is a minimal hand-rolled JSON scanner (zero-dependency
//! policy): it understands exactly the object-per-line shape our own
//! writer emits, skips anything else (counted in [`Trace::skipped`] —
//! sim event lines share the file with spans by design), and keeps each
//! span's `fields` object as raw text so exports can pass it through
//! without re-modelling every field type.

use crate::span::json_escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed span event from a JSONL trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span name (`fptas.phase`, `serve.request`, …).
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Small sequential thread id.
    pub thread: u64,
    /// Start timestamp, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// The span's `fields` value as raw JSON object text (`{…}`).
    pub fields_json: String,
}

impl SpanEvent {
    /// An unsigned integer field, if present and numeric.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        field_raw(&self.fields_json, key)?.parse::<u64>().ok()
    }

    /// A float field, if present (quoted `"NaN"`/`"inf"`/`"-inf"` — the
    /// writer's non-finite encoding — parse back to their float values).
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        let raw = field_raw(&self.fields_json, key)?;
        match strip_quotes(raw) {
            Some("NaN") => Some(f64::NAN),
            Some("inf") => Some(f64::INFINITY),
            Some("-inf") => Some(f64::NEG_INFINITY),
            Some(_) | None => raw.parse::<f64>().ok(),
        }
    }

    /// A string field, if present, with JSON escapes undone.
    pub fn field_str(&self, key: &str) -> Option<String> {
        strip_quotes(field_raw(&self.fields_json, key)?).map(unescape)
    }
}

/// A parsed trace: the span events plus a count of non-span lines.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span event, in file order.
    pub spans: Vec<SpanEvent>,
    /// Non-empty lines that were not span events (sim event records,
    /// truncated tails); skipped, never an error.
    pub skipped: usize,
}

impl Trace {
    /// Parse span JSONL text. Never fails: lines that are not span
    /// events are counted in [`Trace::skipped`] and dropped.
    pub fn parse(text: &str) -> Trace {
        let mut spans = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            match parse_span_line(t) {
                Some(s) => spans.push(s),
                None => skipped += 1,
            }
        }
        Trace { spans, skipped }
    }

    /// Number of distinct thread ids that emitted spans.
    pub fn thread_count(&self) -> usize {
        let mut threads: Vec<u64> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        threads.len()
    }
}

/// The span forest of a trace: children resolved from parent ids, plus
/// per-span self time (duration minus the sum of child durations).
#[derive(Debug)]
pub struct Forest<'a> {
    /// The parsed trace this forest indexes into.
    pub trace: &'a Trace,
    /// Children of each span, as indices into `trace.spans`, ordered by
    /// (start, id).
    pub children: Vec<Vec<usize>>,
    /// Root spans — parent id 0 or a parent that never reached the sink
    /// (dropped line), ordered by (start, id).
    pub roots: Vec<usize>,
    /// Self time of each span in µs, saturating at 0 when clock skew
    /// makes children overrun their parent.
    pub self_us: Vec<u64>,
}

impl<'a> Forest<'a> {
    /// Resolve parent links and self times for `trace`.
    pub fn build(trace: &'a Trace) -> Forest<'a> {
        let n = trace.spans.len();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in trace.spans.iter().enumerate() {
            index.insert(s.id, i);
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in trace.spans.iter().enumerate() {
            let parent = (s.parent != 0).then(|| index.get(&s.parent)).flatten();
            match parent {
                Some(&p) if p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| (trace.spans[i].start_us, trace.spans[i].id));
        }
        roots.sort_by_key(|&i| (trace.spans[i].start_us, trace.spans[i].id));
        let mut self_us = vec![0u64; n];
        for i in 0..n {
            let child_sum: u64 = children[i]
                .iter()
                .map(|&c| trace.spans[c].dur_us)
                .fold(0, u64::saturating_add);
            self_us[i] = trace.spans[i].dur_us.saturating_sub(child_sum);
        }
        Forest {
            trace,
            children,
            roots,
            self_us,
        }
    }

    /// Per-span-name aggregates, ordered by total time (descending, then
    /// name). Quantiles are exact nearest-rank over the collected
    /// durations, not bucket approximations.
    pub fn aggregates(&self) -> Vec<NameAgg> {
        let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut selfs: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, s) in self.trace.spans.iter().enumerate() {
            durs.entry(s.name.as_str()).or_default().push(s.dur_us);
            let cell = selfs.entry(s.name.as_str()).or_default();
            *cell = cell.saturating_add(self.self_us[i]);
        }
        let mut out: Vec<NameAgg> = Vec::with_capacity(durs.len());
        for (name, mut d) in durs {
            d.sort_unstable();
            out.push(NameAgg {
                name: name.to_string(),
                count: d.len() as u64,
                total_us: d.iter().copied().fold(0, u64::saturating_add),
                self_us: selfs.get(name).copied().unwrap_or(0),
                p50_us: exact_quantile(&d, 0.5),
                p95_us: exact_quantile(&d, 0.95),
                max_us: d.last().copied().unwrap_or(0),
            });
        }
        out.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.name.cmp(&b.name))
        });
        out
    }

    /// The critical path from root span index `root`: starting at the
    /// root, repeatedly descend into the child with the largest duration
    /// (ties: earliest start), until a leaf. This is the chain of spans
    /// that bounded the run's wall time — the place a regression lives.
    /// From a span inside an id/parent cycle (duplicate or forged ids) the
    /// descent stops after one span per trace span.
    pub fn critical_path(&self, root: usize) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut cur = root;
        let n = self.trace.spans.len();
        while cur < n && path.len() < n {
            let s = &self.trace.spans[cur];
            path.push(PathStep {
                index: cur,
                name: s.name.clone(),
                dur_us: s.dur_us,
                self_us: self.self_us[cur],
            });
            let next = self.children[cur].iter().copied().max_by_key(|&c| {
                let cs = &self.trace.spans[c];
                (cs.dur_us, std::cmp::Reverse((cs.start_us, cs.id)))
            });
            match next {
                Some(c) => cur = c,
                None => break,
            }
        }
        path
    }

    /// The longest instance of every distinct root-span name, longest
    /// first. Multi-root traces (a bench run emits `fptas.run`,
    /// `des.run`, `par.map`, … side by side) get one critical path per
    /// root kind instead of only the globally longest.
    pub fn top_roots(&self) -> Vec<usize> {
        let mut best: BTreeMap<&str, usize> = BTreeMap::new();
        for &r in &self.roots {
            let s = &self.trace.spans[r];
            match best.get(s.name.as_str()) {
                Some(&b) if self.trace.spans[b].dur_us >= s.dur_us => {}
                _ => {
                    best.insert(s.name.as_str(), r);
                }
            }
        }
        let mut out: Vec<usize> = best.into_values().collect();
        out.sort_by_key(|&r| {
            let s = &self.trace.spans[r];
            (std::cmp::Reverse(s.dur_us), s.start_us, s.id)
        });
        out
    }
}

/// Aggregate statistics for one span name.
#[derive(Clone, Debug)]
pub struct NameAgg {
    /// Span name.
    pub name: String,
    /// Number of instances.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Summed self time (duration minus children), µs.
    pub self_us: u64,
    /// Exact median duration, µs.
    pub p50_us: u64,
    /// Exact 95th-percentile duration, µs.
    pub p95_us: u64,
    /// Longest instance, µs.
    pub max_us: u64,
}

/// One hop of a critical path.
#[derive(Clone, Debug)]
pub struct PathStep {
    /// Index into `trace.spans`.
    pub index: usize,
    /// Span name.
    pub name: String,
    /// Duration, µs.
    pub dur_us: u64,
    /// Self time, µs.
    pub self_us: u64,
}

/// One row of a trace diff: per-name totals in the old and new trace.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Instances in the old trace.
    pub old_count: u64,
    /// Instances in the new trace.
    pub new_count: u64,
    /// Total µs in the old trace.
    pub old_total_us: u64,
    /// Total µs in the new trace.
    pub new_total_us: u64,
    /// `new_total − old_total` in µs; negative means it got faster.
    pub delta_us: i64,
}

/// Diff two traces by span name, largest absolute time delta first —
/// the span-by-span explanation behind a `bench --check` regression.
pub fn diff(old: &Trace, new: &Trace) -> Vec<DiffRow> {
    let o = name_totals(old);
    let n = name_totals(new);
    let mut names: Vec<&str> = o.keys().chain(n.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<DiffRow> = Vec::with_capacity(names.len());
    for name in names {
        let (oc, ot) = o.get(name).copied().unwrap_or((0, 0));
        let (nc, nt) = n.get(name).copied().unwrap_or((0, 0));
        let d = i128::from(nt) - i128::from(ot);
        let delta_us = i64::try_from(d).unwrap_or(if d < 0 { i64::MIN } else { i64::MAX });
        rows.push(DiffRow {
            name: name.to_string(),
            old_count: oc,
            new_count: nc,
            old_total_us: ot,
            new_total_us: nt,
            delta_us,
        });
    }
    rows.sort_by(|a, b| {
        b.delta_us
            .unsigned_abs()
            .cmp(&a.delta_us.unsigned_abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Per-name `(count, total µs)` over a trace.
fn name_totals(t: &Trace) -> BTreeMap<&str, (u64, u64)> {
    let mut out: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &t.spans {
        let cell = out.entry(s.name.as_str()).or_default();
        cell.0 = cell.0.saturating_add(1);
        cell.1 = cell.1.saturating_add(s.dur_us);
    }
    out
}

/// Render the trace as Chrome trace-event JSON (loadable in
/// `chrome://tracing` or Perfetto): one complete (`"ph":"X"`) event per
/// span, µs timestamps, thread ids mapped to `tid`, and the span's
/// fields passed through as `args`.
pub fn to_chrome(trace: &Trace) -> String {
    let mut events: Vec<&SpanEvent> = trace.spans.iter().collect();
    events.sort_by_key(|s| (s.start_us, s.id));
    let mut out = String::with_capacity(events.len() * 128 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        json_escape_into(&mut out, &s.name);
        let args = if s.fields_json.starts_with('{') {
            s.fields_json.as_str()
        } else {
            "{}"
        };
        let _ = write!(
            out,
            "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
            s.start_us, s.dur_us, s.thread, args
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Render the trace as folded stacks — `root;child;leaf weight` lines,
/// the input format of flamegraph.pl and inferno. The weight is each
/// span's **self** time in µs so frame widths sum correctly; zero-weight
/// stacks (sub-µs spans fully covered by children) are omitted.
pub fn to_folded(trace: &Trace) -> String {
    let f = Forest::build(trace);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for &r in &f.roots {
        let mut dfs: Vec<(usize, String)> = vec![(r, trace.spans[r].name.clone())];
        while let Some((i, stack)) = dfs.pop() {
            let w = f.self_us[i];
            if w > 0 {
                let cell = stacks.entry(stack.clone()).or_default();
                *cell = cell.saturating_add(w);
            }
            for &c in &f.children[i] {
                dfs.push((c, format!("{stack};{}", trace.spans[c].name)));
            }
        }
    }
    let mut out = String::new();
    for (stack, w) in stacks {
        let _ = writeln!(out, "{stack} {w}");
    }
    out
}

/// One point of the DES conversion disruption timeline, decoded from a
/// `des.timeline` span emitted by ft-sim during a live conversion.
#[derive(Clone, Debug, Default)]
pub struct TimelinePoint {
    /// Reallocation epoch the point was sampled at.
    pub epoch: u64,
    /// Simulation time of the reallocation.
    pub t: f64,
    /// Conversion phase: `drain` (links removed, latency running) or
    /// `post` (new links live, final re-route done).
    pub phase: String,
    /// Flows currently admitted with a path.
    pub active: u64,
    /// Flows parked without a path.
    pub parked: u64,
    /// Events pending in the DES queue.
    pub queue: u64,
    /// Events scheduled so far (event-rate proxy across points).
    pub scheduled: u64,
    /// Cumulative flow re-routes.
    pub reroutes: u64,
    /// Cumulative re-routes attributed to the conversion window.
    pub conversion_reroutes: u64,
    /// Links removed by the conversion so far.
    pub links_removed: u64,
    /// Links the conversion plan removes in total (drain progress is
    /// `links_removed / links_planned`).
    pub links_planned: u64,
}

/// Extract the conversion timeline (`des.timeline` spans) in emission
/// order. Empty when the trace holds no conversion — `ftctl trace` only
/// renders the disruption profile when this is non-empty.
pub fn conversion_timeline(trace: &Trace) -> Vec<TimelinePoint> {
    let mut with_key: Vec<(u64, u64, TimelinePoint)> = Vec::new();
    for s in &trace.spans {
        if s.name != "des.timeline" {
            continue;
        }
        let p = TimelinePoint {
            epoch: s.field_u64("epoch").unwrap_or(0),
            t: s.field_f64("t").unwrap_or(0.0),
            phase: s.field_str("phase").unwrap_or_default(),
            active: s.field_u64("active").unwrap_or(0),
            parked: s.field_u64("parked").unwrap_or(0),
            queue: s.field_u64("queue").unwrap_or(0),
            scheduled: s.field_u64("scheduled").unwrap_or(0),
            reroutes: s.field_u64("reroutes").unwrap_or(0),
            conversion_reroutes: s.field_u64("conversion_reroutes").unwrap_or(0),
            links_removed: s.field_u64("links_removed").unwrap_or(0),
            links_planned: s.field_u64("links_planned").unwrap_or(0),
        };
        with_key.push((s.start_us, s.id, p));
    }
    with_key.sort_by_key(|a| (a.0, a.1));
    with_key.into_iter().map(|(_, _, p)| p).collect()
}

/// Nearest-rank quantile over ascending-sorted samples — exact, unlike
/// the bucketed registry quantiles. 0 when empty.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Parses one JSONL line as a span event; `None` for anything else.
fn parse_span_line(line: &str) -> Option<SpanEvent> {
    let entries = object_entries(line)?;
    let mut is_span = false;
    let mut name: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut parent = 0u64;
    let mut thread = 0u64;
    let mut start_us: Option<u64> = None;
    let mut dur_us = 0u64;
    let mut fields_json = String::from("{}");
    for (k, v) in entries {
        match k {
            "type" => is_span = v == "\"span\"",
            "name" => name = strip_quotes(v).map(unescape),
            "id" => id = v.parse::<u64>().ok(),
            "parent" => parent = v.parse::<u64>().ok().unwrap_or(0),
            "thread" => thread = v.parse::<u64>().ok().unwrap_or(0),
            "start_us" => start_us = v.parse::<u64>().ok(),
            "dur_us" => dur_us = v.parse::<u64>().ok().unwrap_or(0),
            "fields" => fields_json = v.to_string(),
            _ => {}
        }
    }
    if !is_span {
        return None;
    }
    Some(SpanEvent {
        name: name?,
        id: id?,
        parent,
        thread,
        start_us: start_us?,
        dur_us,
        fields_json,
    })
}

/// The raw value of `key` at the top level of JSON object text.
fn field_raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    object_entries(obj)?
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Splits the top level of a JSON object into `(key, raw value)` pairs.
/// `None` on malformed input. Keys are the raw quoted content (our own
/// writer never escapes key characters); values are trimmed raw slices.
fn object_entries(obj: &str) -> Option<Vec<(&str, &str)>> {
    let b = obj.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(b, i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b'}') {
        return Some(out);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = scan_string(b, i)?;
        // key content sits strictly between the quotes
        let key = obj.get(i + 1..key_end.checked_sub(1)?)?;
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let val_end = scan_value(b, i)?;
        let val = obj.get(i..val_end)?.trim();
        out.push((key, val));
        i = skip_ws(b, val_end);
        match b.get(i) {
            Some(&b',') => i = skip_ws(b, i + 1),
            Some(&b'}') => return Some(out),
            _ => return None,
        }
    }
}

/// First non-whitespace position at or after `i`.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        i += 1;
    }
    i
}

/// `i` at an opening quote; returns the index just past the closing one.
fn scan_string(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    loop {
        match b.get(j)? {
            b'\\' => j += 2,
            b'"' => return Some(j + 1),
            _ => j += 1,
        }
    }
}

/// `i` at the first byte of a JSON value; returns its exclusive end.
fn scan_value(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => scan_string(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match b.get(j)? {
                    b'"' => {
                        j = scan_string(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth = depth.checked_sub(1)?;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while let Some(c) = b.get(j) {
                if matches!(c, b',' | b'}' | b']') || c.is_ascii_whitespace() {
                    break;
                }
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// The content of a quoted JSON string value (raw, escapes intact).
fn strip_quotes(v: &str) -> Option<&str> {
    v.strip_prefix('"')?.strip_suffix('"')
}

/// Undo the JSON string escapes our own writer produces.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    Some(u) => out.push(u),
                    None => out.push('\u{fffd}'),
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, id: u64, parent: u64, start: u64, dur: u64) -> String {
        format!(
            "{{\"type\":\"span\",\"name\":\"{name}\",\"id\":{id},\"parent\":{parent},\
             \"thread\":0,\"start_us\":{start},\"dur_us\":{dur},\"fields\":{{}}}}"
        )
    }

    #[test]
    fn parses_spans_and_skips_other_lines() {
        let text = format!(
            "{}\n{{\"kind\":\"arrival\",\"t\":1.5}}\nnot json\n{}\n",
            span_line("a", 1, 0, 0, 100),
            span_line("b", 2, 1, 10, 40),
        );
        let t = Trace::parse(&text);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.skipped, 2);
        assert_eq!(t.spans[0].name, "a");
        assert_eq!(t.spans[1].parent, 1);
    }

    #[test]
    fn forest_resolves_children_and_self_time() {
        let text = format!(
            "{}\n{}\n{}\n",
            span_line("root", 1, 0, 0, 100),
            span_line("kid", 2, 1, 10, 30),
            span_line("kid", 3, 1, 50, 20),
        );
        let t = Trace::parse(&text);
        let f = Forest::build(&t);
        assert_eq!(f.roots, vec![0]);
        assert_eq!(f.children[0], vec![1, 2]);
        assert_eq!(f.self_us[0], 50);
        assert_eq!(f.self_us[1], 30);
    }

    #[test]
    fn orphans_become_roots() {
        let text = span_line("lost", 7, 999, 5, 10);
        let t = Trace::parse(&text);
        let f = Forest::build(&t);
        assert_eq!(f.roots, vec![0]);
    }

    #[test]
    fn aggregates_sorted_by_total() {
        let text = format!(
            "{}\n{}\n{}\n",
            span_line("slow", 1, 0, 0, 1000),
            span_line("fast", 2, 0, 0, 10),
            span_line("fast", 3, 0, 20, 30),
        );
        let t = Trace::parse(&text);
        let aggs = Forest::build(&t).aggregates();
        assert_eq!(aggs[0].name, "slow");
        assert_eq!(aggs[1].name, "fast");
        assert_eq!(aggs[1].count, 2);
        assert_eq!(aggs[1].total_us, 40);
        assert_eq!(aggs[1].p50_us, 10);
        assert_eq!(aggs[1].max_us, 30);
    }

    #[test]
    fn critical_path_descends_longest_child() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            span_line("root", 1, 0, 0, 100),
            span_line("short", 2, 1, 0, 20),
            span_line("long", 3, 1, 20, 70),
            span_line("leaf", 4, 3, 25, 60),
        );
        let t = Trace::parse(&text);
        let f = Forest::build(&t);
        let path = f.critical_path(0);
        let names: Vec<&str> = path.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["root", "long", "leaf"]);
    }

    #[test]
    fn top_roots_one_per_name_longest_first() {
        let text = format!(
            "{}\n{}\n{}\n",
            span_line("a", 1, 0, 0, 10),
            span_line("a", 2, 0, 20, 90),
            span_line("b", 3, 0, 5, 50),
        );
        let t = Trace::parse(&text);
        let f = Forest::build(&t);
        let roots = f.top_roots();
        let names: Vec<(&str, u64)> = roots
            .iter()
            .map(|&r| (t.spans[r].name.as_str(), t.spans[r].dur_us))
            .collect();
        assert_eq!(names, vec![("a", 90), ("b", 50)]);
    }

    #[test]
    fn diff_ranks_by_absolute_delta() {
        let old = Trace::parse(&format!(
            "{}\n{}\n",
            span_line("x", 1, 0, 0, 100),
            span_line("y", 2, 0, 0, 500),
        ));
        let new = Trace::parse(&format!(
            "{}\n{}\n",
            span_line("x", 1, 0, 0, 900),
            span_line("z", 2, 0, 0, 10),
        ));
        let rows = diff(&old, &new);
        assert_eq!(rows[0].name, "x");
        assert_eq!(rows[0].delta_us, 800);
        assert_eq!(rows[1].name, "y");
        assert_eq!(rows[1].delta_us, -500);
        assert_eq!(rows[2].name, "z");
        assert_eq!(rows[2].new_count, 1);
        assert_eq!(rows[2].old_count, 0);
    }

    #[test]
    fn chrome_export_is_json_with_events() {
        let text = format!(
            "{}\n{}\n",
            span_line("a", 1, 0, 0, 5),
            span_line("b", 2, 1, 1, 2)
        );
        let t = Trace::parse(&text);
        let chrome = to_chrome(&t);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"a\""));
        // round-trips through our own object scanner
        assert!(object_entries(chrome.trim()).is_some());
    }

    #[test]
    fn folded_weights_are_self_time() {
        let text = format!(
            "{}\n{}\n",
            span_line("root", 1, 0, 0, 100),
            span_line("kid", 2, 1, 10, 30),
        );
        let t = Trace::parse(&text);
        let folded = to_folded(&t);
        assert!(folded.contains("root 70\n"), "{folded}");
        assert!(folded.contains("root;kid 30\n"), "{folded}");
    }

    #[test]
    fn fields_decode_typed_values() {
        let line = "{\"type\":\"span\",\"name\":\"des.timeline\",\"id\":9,\"parent\":0,\
                    \"thread\":1,\"start_us\":4,\"dur_us\":0,\"fields\":{\"epoch\":3,\
                    \"t\":2.5,\"phase\":\"drain\",\"bad\":\"NaN\"}}";
        let t = Trace::parse(line);
        let s = &t.spans[0];
        assert_eq!(s.field_u64("epoch"), Some(3));
        assert!((s.field_f64("t").unwrap_or(0.0) - 2.5).abs() < 1e-12);
        assert_eq!(s.field_str("phase").as_deref(), Some("drain"));
        assert!(s.field_f64("bad").map(|v| v.is_nan()).unwrap_or(false));
        let tl = conversion_timeline(&t);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].epoch, 3);
        assert_eq!(tl[0].phase, "drain");
    }

    #[test]
    fn exact_quantiles_nearest_rank() {
        let d = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(exact_quantile(&d, 0.5), 50);
        assert_eq!(exact_quantile(&d, 0.95), 100);
        assert_eq!(exact_quantile(&d, 1.0), 100);
        assert_eq!(exact_quantile(&[], 0.5), 0);
    }
}
