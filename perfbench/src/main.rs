//! `perfbench` — the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <paper-static|serve-marketplace|churn-dense>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host/build stamp, a short human summary, and — as the last
//! line — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The traced run (`--trace 1`) also writes its spans to
//! `.perfbench/trace-<workload>-seed<n>.json` under the working
//! directory. Exits non-zero if any correctness check failed.

use std::path::Path;
use std::process::ExitCode;

use wmatch_perfbench::host::Stamp;
use wmatch_perfbench::inputs::Size;
use wmatch_perfbench::trace::Tracer;
use wmatch_perfbench::workloads::run;
use wmatch_perfbench::{json_number, json_string, render_result, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Writes the traced run's spans, self times and per-layer metrics.
fn write_trace(
    stamp: &Stamp,
    tracer: &Tracer,
    metrics: &wmatch_perfbench::Metrics,
) -> std::io::Result<String> {
    let dir = Path::new(".perfbench");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", stamp.workload, stamp.seed));
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"stamp\": {},\n\"metrics\": {{",
        stamp.to_json()
    ));
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
        .collect();
    out.push_str(&body.join(", "));
    out.push_str("},\n\"self_time\": [");
    let selfs: Vec<String> = tracer
        .self_times()
        .iter()
        .map(|(name, secs, count)| {
            format!(
                "{{\"name\": {}, \"self_s\": {}, \"count\": {count}}}",
                json_string(name),
                json_number(*secs)
            )
        })
        .collect();
    out.push_str(&selfs.join(",\n "));
    out.push_str("],\n\"spans\": [\n");
    let spans: Vec<String> = tracer
        .spans()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    out.push_str(&spans.join(",\n"));
    out.push_str("\n]}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect(Path::new("."), &args.workload, args.seed, args.trace);
    println!("# stamp {}", stamp.to_json());
    let run = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Size::full(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &run.gate.failures {
        eprintln!("perfbench: correctness check failed: {f}");
    }
    if let Some(tracer) = &run.tracer {
        for (name, secs, count) in tracer.self_times() {
            println!("# self {name:<28} {secs:>10.6} s  ({count} spans)");
        }
        match write_trace(&stamp, tracer, &run.metrics) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match render_result(&run.gate, &run.metrics, catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if run.gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
