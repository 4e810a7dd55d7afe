//! The StreamWorks benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path swbench/Cargo.toml -- \
//!     --workload <news-labelled|news-triple|tenants-lifted|cyber-sharded|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it replays the seeded stream into `ContinuousQueryEngine`
//! untraced and reports the end-to-end metrics; with `--trace 1` it drives
//! the same events through each layer's public entry points under spans and
//! reports the per-layer ledger. Both check the outputs first and exit 1 if
//! any is wrong. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod ledger;
mod load;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use workload::{Workload, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One metric as measured.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed next to the value: sample counts, rates, definitions.
    pub note: String,
}

/// What one workload's run produced.
#[derive(Default)]
pub struct Report {
    pub wrong: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        });
    }
}

/// Untraced end-to-end run over the sub-streams: reference checks, set-up,
/// then closed-loop rounds and open-loop segments.
fn end_to_end(ws: &[Workload], seconds: u64) -> Report {
    let mut report = Report::default();
    let w = &ws[0];
    let mut setup = load::Setup::default();
    setup.repeat(w, 20);
    let mut expected = Vec::new();
    for sub in ws {
        match sub.reference() {
            Ok(n) => expected.push(n),
            Err(e) => report.wrong.push(format!("seed {}: {e}", sub.seed)),
        }
    }
    if !report.wrong.is_empty() {
        return report;
    }
    let mut ops = load::Ops::default();
    let (closed, open, rounds) = load::measure(
        ws,
        Duration::from_secs(seconds),
        &expected,
        &mut setup,
        &mut ops,
    );
    let (p50, pooled) = closed.calls.best_p50_us();
    let (p99, windows) = open.window_p99_us();
    let n = open.latencies_ns.len();
    if windows == 0 {
        report
            .wrong
            .push(format!("only {n} latency samples, too few for a p99"));
    }
    report.add(
        "throughput_eps",
        closed.throughput_eps(),
        "events/s",
        format!(
            "closed loop, {} events after warm-up over {} sub-streams, the fastest of {rounds} passes over each",
            closed.events.iter().sum::<u64>(),
            ws.len(),
        ),
    );
    report.add(
        "latency_p50_us",
        p50,
        "us",
        format!(
            "closed loop, one ingest call of {}, p50 of n={pooled}: the pass with the lowest p50 of {rounds} per sub-stream",
            if w.batch == 1 { "one event".to_owned() } else { format!("up to {} events", w.batch) }
        ),
    );
    // The open-loop tail is printed with its window count but is not a
    // gated metric: on a 2-vCPU virtual machine its spread over ten seeded
    // runs reached 0.5 of the median, twice the largest bound a metric may
    // have.
    println!(
        "{} latency_p99_us {p99} us (open loop at {} events/s, n={n}, median p99 of {windows} windows of {}; not gated)",
        w.name,
        w.open_rate,
        load::WINDOW
    );
    report.add(
        "setup_s",
        stats::median(&setup.samples),
        "s",
        format!(
            "median of {} set-ups of {} queries",
            setup.samples.len(),
            w.queries.len()
        ),
    );
    report.add(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM at the end of the run",
    );
    let failed_frac = ops.failed as f64 / ops.attempted.max(1) as f64;
    eprintln!(
        "{} failed_frac {failed_frac} ratio ({} of {} operations); driver.lag_max_ms {}; matches per sub-stream {:?}",
        w.name,
        ops.failed,
        ops.attempted,
        open.lag_max_ns as f64 / 1e6,
        expected
    );
    report.attempted = ops.attempted;
    report.failed = ops.failed;
    report.wrong.extend(ops.wrong);
    report
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: swbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Report::default();
    for name in &names {
        // The traced run follows the first sub-stream of the seed.
        let subs = if args.trace {
            1
        } else {
            workload::sub_streams(name)
        };
        let ws: Vec<Workload> = (0..subs)
            .map(|k| {
                Workload::generate(name, workload::sub_seed(args.seed, k))
                    .expect("workload names are checked")
            })
            .collect();
        let w = &ws[0];
        eprintln!(
            "{}: seed {}, {} sub-streams of about {} events ({} in the warm-up window), {} queries",
            w.name,
            args.seed,
            ws.len(),
            w.events.len(),
            w.warmup,
            w.queries.len()
        );
        let report = if args.trace {
            ledger::traced(w)
        } else {
            end_to_end(&ws, args.seconds)
        };
        workload::remove_logs(w.queries.len());
        for m in &report.metrics {
            println!("{} {} {} {} ({})", w.name, m.name, m.value, m.unit, m.note);
        }
        for e in &report.wrong {
            eprintln!("{}: WRONG: {e}", w.name);
        }
        all.attempted += report.attempted;
        all.failed += report.failed;
        all.wrong
            .extend(report.wrong.into_iter().map(|e| format!("{name}: {e}")));
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        all.metrics
            .extend(report.metrics.into_iter().map(|m| Metric {
                name: format!("{prefix}{}", m.name),
                ..m
            }));
    }
    let metrics: Vec<String> = all
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let correct = all.wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all.attempted.max(1),
        all.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload news-triple --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("news-triple", 9, 3, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload all --trace 2").is_err());
        assert!(args("--workload all --seed").is_err());
        assert!(args("--workload all --seconds 0").is_err());
    }

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
