//! `ftctl` checks its flags per command: a flag the command does not read
//! ends in an `error:` line naming it and exit code 2, never a panic or a
//! run that ignores it; `--help` or `-h` after any command prints the
//! usage and exits 0; every other refused input exits 2 with `error:`
//! too; and every `ftctl` invocation in the CI workflow parses.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

const COMMANDS: &[&str] = &[
    "topo", "metrics", "convert", "profile", "serve", "query", "sim", "bench", "lint", "trace",
];

/// Runs `ftctl args`; returns (exit code, stdout, stderr).
fn ftctl(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftctl"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_error(args: &[&str], names: &str) {
    let (code, _, stderr) = ftctl(args);
    assert_eq!(code, Some(2), "{args:?}: exit {code:?}, stderr {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} must name {names:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_an_error_for_every_command() {
    for &command in COMMANDS {
        assert_error(&[command, "--jsn", "x.json"], "--jsn");
    }
    // a misspelt flag beside valid ones must not run the command
    assert_error(
        &["topo", "--kind", "fat-tree", "-k", "4", "--jsn", "x.json"],
        "--jsn",
    );
    assert!(!std::path::Path::new("x.json").exists());
    assert_error(
        &["bench", "--quick", "--chek", "BENCH_hotpaths.json"],
        "--chek",
    );
    // a flag one command reads is still unknown to another
    assert_error(&["convert", "-k", "8", "--mode", "clos"], "--mode");
    assert_error(&["profile", "-k", "8", "--quick"], "--quick");
}

#[test]
fn help_after_every_command_prints_usage() {
    for &command in COMMANDS {
        for help in ["--help", "-h"] {
            let (code, stdout, stderr) = ftctl(&[command, help]);
            assert_eq!(code, Some(0), "{command} {help}: {stderr}");
            assert!(stdout.contains("USAGE:"), "{command} {help}: {stdout}");
        }
    }
    let (code, stdout, _) = ftctl(&["sim", "--scenario", "missing.scn", "--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("ftctl sim"), "{stdout}");
}

#[test]
fn every_refused_input_exits_2() {
    for (args, names) in [
        (&[][..], "missing subcommand"),
        (&["frobnicate"][..], "unknown subcommand"),
        (&["topo", "oops"][..], "expected a flag"),
        (&["topo", "-k"][..], "--k needs a value"),
        (&["topo", "-k", "3"][..], "-k must be even"),
        (&["topo", "-k", "2"][..], "-k must be even"),
        (&["topo", "-k", "eight"][..], "-k must be an integer"),
        (&["topo", "--kind", "nope", "-k", "8"][..], "unknown --kind"),
        (&["topo", "-k", "8", "--mode", "weird"][..], "unknown mode"),
        (&["metrics", "-k", "8", "--seed", "x"][..], "--seed"),
        (
            &["convert", "-k", "8", "--from", "clos"][..],
            "missing --to",
        ),
        (
            &["convert", "-k", "8", "--from", "x", "--to", "clos"][..],
            "unknown mode",
        ),
        (&["query", "-k", "4", "--workers", "zero"][..], "--workers"),
        (&["serve", "-k", "4", "--port", "70000"][..], "--port"),
        (&["sim"][..], "missing --scenario"),
        (
            &["sim", "--scenario", "/nonexistent/ftctl.scn"][..],
            "cannot read",
        ),
        (&["trace"][..], "span file"),
    ] {
        assert_error(args, names);
    }
}

/// Splits one shell command line into words: double quotes group, and the
/// words end at the first redirection, pipe or command separator.
fn shell_words(line: &str) -> Vec<String> {
    let (mut words, mut word, mut quoted) = (Vec::new(), String::new(), false);
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            c if c.is_whitespace() && !quoted => {
                if !word.is_empty() {
                    words.push(std::mem::take(&mut word));
                }
            }
            c => word.push(c),
        }
    }
    words.push(word);
    let end = words
        .iter()
        .position(|w| w.starts_with(['>', '|', ';']) || w.starts_with("2>"))
        .unwrap_or(words.len());
    words.truncate(end);
    words.retain(|w| !w.is_empty());
    words
}

#[test]
fn ci_invocations_parse() {
    let ci = include_str!("../.github/workflows/ci.yml").replace("\\\n", " ");
    let mut seen = 0;
    for line in ci.lines() {
        let Some((_, rest)) = line.split_once("target/release/ftctl ") else {
            continue;
        };
        let args = shell_words(rest);
        let inv = flat_tree::cli::parse(&args)
            .unwrap_or_else(|e| panic!("CI invocation {args:?} does not parse: {e}"));
        assert!(COMMANDS.contains(&inv.command.as_str()), "{args:?}");
        seen += 1;
    }
    assert!(seen >= 10, "found only {seen} ftctl invocations in ci.yml");
}
