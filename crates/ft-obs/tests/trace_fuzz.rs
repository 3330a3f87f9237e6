//! Fuzz of the trace reader, the one parser left that reads files from
//! outside the process (`ftctl trace`). 10 000 seeded soups of real span
//! lines — truncated, stripped of a quote, brace or comma, with values
//! swapped for huge, negative, non-numeric or multi-byte text, nested
//! `fields`, duplicate ids and cyclic id/parent links — go through
//! `Trace::parse` and every analysis built on it. Nothing may panic or
//! hang, and every line the soup left intact must parse to exactly the
//! event it parses to alone.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ft_obs::analyze::{conversion_timeline, diff, to_chrome, to_folded, Forest, Trace};
use ft_obs::Span;

/// splitmix64: a seeded generator with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Span lines as the writer renders them: a root with every field type
/// (escaped and multi-byte strings, non-finite floats), nested children,
/// and a conversion-timeline point.
fn real_lines() -> Vec<String> {
    let store = ft_obs::install_memory_sink();
    {
        let mut root = Span::begin("fuzz.root");
        root.field("k", 8usize);
        root.field("lambda", 0.25f64);
        root.field("nan", f64::NAN);
        root.field("neg", f64::NEG_INFINITY);
        root.field("tag", "a\"b\\c\n\u{1}");
        root.field("ünï", "сеть ✓");
        root.field("ok", true);
        for i in 0..3u32 {
            let mut kid = Span::begin("fuzz.kid");
            kid.field("i", i);
            let _leaf = Span::begin("fuzz.leaf");
        }
        let mut point = Span::begin("des.timeline");
        point.field("epoch", 3u64);
        point.field("t", 2.5f64);
        point.field("phase", "drain");
        point.field("links_planned", 12u64);
    }
    ft_obs::take_sink();
    let lines = store.lock().unwrap().clone();
    assert_eq!(lines.len(), 8, "{lines:?}");
    lines
}

/// Replaces the value of top-level `"key":` in `line` by `value`.
fn set_value(line: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\":");
    let Some(at) = line.find(&tag) else {
        return line.to_string();
    };
    let start = at + tag.len();
    let rest = &line[start..];
    let end = if key == "fields" {
        // the fields object runs to the line's closing brace
        rest.len() - 1
    } else if let Some(quoted) = rest.strip_prefix('"') {
        quoted.find('"').map_or(rest.len(), |i| i + 2)
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    format!("{}{value}{}", &line[..start], &rest[end..])
}

/// The raw value of top-level numeric `key` in a real line.
fn number(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).unwrap() + tag.len()..];
    rest[..rest.find([',', '}']).unwrap()].to_string()
}

const ODD_VALUES: [&str; 12] = [
    "99999999999999999999999",
    "18446744073709551616",
    "-1",
    "-0",
    "1e3",
    "0x10",
    "abc",
    "\"ünï ✓\"",
    "ünï",
    "null",
    "",
    "{\"x\":[1,{\"y\":\"}\"}]}",
];

const KEYS: [&str; 8] = [
    "type", "name", "id", "parent", "thread", "start_us", "dur_us", "fields",
];

/// One soup line from `line`, and whether it is left intact.
fn mutate(rng: &mut Rng, line: &str, ids: &[String]) -> (String, bool) {
    match rng.below(9) {
        0 | 1 => (line.to_string(), true),
        2 => {
            // truncated at a byte, possibly inside a multi-byte character
            let cut = rng.below(line.len() + 1);
            let bytes = &line.as_bytes()[..cut];
            (String::from_utf8_lossy(bytes).into_owned(), false)
        }
        3 => {
            // one quote, brace or comma dropped
            let marks: Vec<usize> = line
                .match_indices(['"', '{', '}', ','])
                .map(|(i, _)| i)
                .collect();
            let at = marks[rng.below(marks.len())];
            (format!("{}{}", &line[..at], &line[at + 1..]), false)
        }
        4 => {
            let key = KEYS[rng.below(KEYS.len())];
            let value = ODD_VALUES[rng.below(ODD_VALUES.len())];
            (set_value(line, key, value), false)
        }
        5 => {
            let nested = "{\"a\":{\"b\":[1,{\"c\":\"}]\"}],\"d\":[[],{}]},\"e\":\"\\\"{\"}";
            (set_value(line, "fields", nested), false)
        }
        6 => {
            // another line's id: a duplicate
            let id = &ids[rng.below(ids.len())];
            (set_value(line, "id", id), false)
        }
        7 => {
            // its own id as parent, or another line's: cycles form
            let parent = if rng.below(2) == 0 {
                number(line, "id")
            } else {
                ids[rng.below(ids.len())].clone()
            };
            (set_value(line, "parent", &parent), false)
        }
        _ => {
            let junk = [
                "{\"kind\":\"arrival\",\"t\":1.5}",
                "not json ✓",
                "{}",
                "[{\"type\":\"span\"}]",
                "{\"type\":\"span\"",
                "\u{feff}{",
            ];
            (junk[rng.below(junk.len())].to_string(), false)
        }
    }
}

/// Runs every analysis `ftctl trace` offers on `t`.
fn analyze(t: &Trace, base: &Trace) {
    let f = Forest::build(t);
    assert_eq!(f.children.len(), t.spans.len());
    let aggs = f.aggregates();
    assert!(aggs.iter().map(|a| a.count).sum::<u64>() == t.spans.len() as u64);
    for r in f.top_roots() {
        assert!(!f.critical_path(r).is_empty());
    }
    // from any span, even one inside an id/parent cycle, a path ends
    for i in 0..t.spans.len() {
        assert!(f.critical_path(i).len() <= t.spans.len());
    }
    let _ = to_folded(t);
    let chrome = to_chrome(t);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    let _ = diff(base, t);
    let _ = diff(t, base);
    let _ = conversion_timeline(t);
    let _ = t.thread_count();
    for s in &t.spans {
        for key in ["epoch", "t", "phase", "tag", "ünï", "nan", "a", "x"] {
            let _ = (s.field_u64(key), s.field_f64(key), s.field_str(key));
        }
    }
}

#[test]
fn trace_reader_survives_line_soups() {
    let lines = real_lines();
    let base = Trace::parse(&lines.join("\n"));
    assert_eq!(base.spans.len(), lines.len());
    assert_eq!(base.skipped, 0);
    let root = base.spans.iter().find(|s| s.name == "fuzz.root").unwrap();
    assert_eq!(root.field_u64("k"), Some(8));
    assert!(root.field_f64("nan").unwrap().is_nan());
    assert_eq!(root.field_f64("neg"), Some(f64::NEG_INFINITY));
    assert_eq!(root.field_str("tag").as_deref(), Some("a\"b\\c\n\u{1}"));
    assert_eq!(root.field_str("ünï").as_deref(), Some("сеть ✓"));
    assert_eq!(conversion_timeline(&base)[0].links_planned, 12);
    analyze(&base, &base);

    // every real line truncated at every byte
    for line in &lines {
        for cut in 0..=line.len() {
            let text = String::from_utf8_lossy(&line.as_bytes()[..cut]).into_owned();
            let t = Trace::parse(&text);
            assert!(t.spans.len() <= 1);
            analyze(&t, &base);
        }
    }

    let ids: Vec<String> = lines.iter().map(|l| number(l, "id")).collect();
    let mut rng = Rng(27);
    for soup_no in 0..10_000 {
        // each line, and the real line it still is
        let mut soup: Vec<(String, Option<usize>)> = Vec::new();
        for _ in 0..1 + rng.below(12) {
            let j = rng.below(lines.len());
            let (line, intact) = mutate(&mut rng, &lines[j], &ids);
            soup.push((line, intact.then_some(j)));
        }
        let text: String = soup.iter().map(|(l, _)| format!("{l}\n")).collect();
        let t = Trace::parse(&text);
        // line by line: an intact line yields its own event, in order
        let mut spans = t.spans.iter();
        let mut skipped = 0;
        for (line, intact) in &soup {
            let alone = Trace::parse(line);
            skipped += alone.skipped;
            if let Some(want) = alone.spans.first() {
                let got = spans.next().expect("a span went missing");
                assert_eq!(got, want, "soup {soup_no}: {line}");
            }
            if let Some(j) = intact {
                assert_eq!(alone.spans, [base.spans[*j].clone()], "soup {soup_no}");
            }
        }
        assert!(spans.next().is_none(), "soup {soup_no}: extra spans");
        assert_eq!(t.skipped, skipped, "soup {soup_no}");
        analyze(&t, &base);
    }
}
